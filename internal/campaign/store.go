package campaign

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rvnegtest/internal/resilience"
)

// Job is one scheduled campaign: a spec plus lifecycle state, persisted
// as an atomic, versioned job.json so queued and running jobs survive
// daemon restarts (including kill -9 — the engines' checkpoints under
// the job directory are the durable mid-run state, job.json only has to
// say "this job exists and was running").
type Job struct {
	// ID is the store-unique job name ("job-000001").
	ID string `json:"id"`
	// Spec is the immutable job description.
	Spec JobSpec `json:"spec"`
	// State is the lifecycle position.
	State State `json:"state"`
	// Error carries the failure detail for failed jobs.
	Error string `json:"error,omitempty"`
	// Degraded records harness faults on an otherwise completed job
	// (redundant with StateDegraded; kept for listings).
	Degraded bool `json:"degraded,omitempty"`
	// Resumes counts how many times the job resumed from a checkpoint
	// (daemon restarts and suspensions).
	Resumes int `json:"resumes,omitempty"`
	// SubmittedNS/StartedNS/FinishedNS are wall-clock Unix timestamps
	// in nanoseconds (0 = not yet). Operational metadata only — never
	// part of result artifacts.
	SubmittedNS int64 `json:"submitted_ns,omitempty"`
	StartedNS   int64 `json:"started_ns,omitempty"`
	FinishedNS  int64 `json:"finished_ns,omitempty"`
}

// Clone returns a deep copy, so API handlers can serialize a snapshot
// while the scheduler keeps mutating the original.
func (j *Job) Clone() *Job {
	c := *j
	c.Spec = j.Spec.Clone()
	return &c
}

const (
	jobFormat     = "rvnegtestd-job"
	jobVersion    = 1
	jobFileName   = "job.json"
	jobDirPrefix  = "job-"
	checkpointSub = "checkpoint"
	quarantineSub = "quarantine"
	artifactsSub  = "artifacts"
)

// ErrNoJob reports a job ID the store has never seen.
var ErrNoJob = errors.New("campaign: no such job")

// Store is the daemon's persistent job queue: a directory holding one
// subdirectory per job —
//
//	<root>/job-000001/job.json      spec + lifecycle state (atomic)
//	<root>/job-000001/checkpoint/   engine checkpoints (durable job state)
//	<root>/job-000001/quarantine/   fault-triggering inputs for triage
//	<root>/job-000001/artifacts/    suite.txt / stats.json / report.*
//
// Job IDs are monotonically allocated by scanning existing directories,
// so restarts never reuse an ID. The Store itself is not goroutine-safe;
// the Scheduler serializes access.
type Store struct {
	root string
	next int

	// now is the wall clock, injectable for deterministic tests.
	now func() int64
}

// OpenStore opens (creating if needed) a job store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("campaign: store needs a root directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{root: dir, now: func() int64 { return time.Now().UnixNano() }}
	ids, err := s.scan()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		var n int
		if _, err := fmt.Sscanf(id, jobDirPrefix+"%d", &n); err == nil && n >= s.next {
			s.next = n + 1
		}
	}
	if s.next == 0 {
		s.next = 1
	}
	return s, nil
}

// scan lists existing job directory names in ID order.
func (s *Store) scan() ([]string, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), jobDirPrefix) {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// NewJob allocates the next job directory for spec and persists it in
// the queued state.
func (s *Store) NewJob(spec JobSpec) (*Job, error) {
	id := fmt.Sprintf("%s%06d", jobDirPrefix, s.next)
	s.next++
	job := &Job{ID: id, Spec: spec, State: StateQueued, SubmittedNS: s.now()}
	if err := os.MkdirAll(s.JobDir(id), 0o755); err != nil {
		return nil, err
	}
	if err := s.Put(job); err != nil {
		return nil, err
	}
	return job, nil
}

// Put atomically persists the job's current state.
func (s *Store) Put(job *Job) error {
	return resilience.SaveJSON(filepath.Join(s.JobDir(job.ID), jobFileName), jobFormat, jobVersion, job)
}

// Get loads one job by ID.
func (s *Store) Get(id string) (*Job, error) {
	var job Job
	_, err := resilience.LoadJSON(filepath.Join(s.JobDir(id), jobFileName), jobFormat, jobVersion, &job)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	if err != nil {
		return nil, err
	}
	return &job, nil
}

// List loads every job, sorted by ID (submission order). A job directory
// without a job.json is skipped: NewJob died between creating it and the
// first Put, so Submit never acknowledged that job. OpenStore still
// counts the directory, so its ID is not reused.
func (s *Store) List() ([]*Job, error) {
	ids, err := s.scan()
	if err != nil {
		return nil, err
	}
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		job, err := s.Get(id)
		if errors.Is(err, ErrNoJob) {
			continue
		}
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
	}
	return jobs, nil
}

// JobDir returns the job's directory.
func (s *Store) JobDir(id string) string { return filepath.Join(s.root, id) }

// CheckpointDir returns where the job's engine checkpoints live.
func (s *Store) CheckpointDir(id string) string {
	return filepath.Join(s.JobDir(id), checkpointSub)
}

// QuarantineDir returns where the job's fault-triggering inputs live.
func (s *Store) QuarantineDir(id string) string {
	return filepath.Join(s.JobDir(id), quarantineSub)
}

// ArtifactsDir returns where the job's result artifacts live.
func (s *Store) ArtifactsDir(id string) string {
	return filepath.Join(s.JobDir(id), artifactsSub)
}

// ArtifactFile is one entry of a job's artifact listing.
type ArtifactFile struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// Artifacts lists the job's artifact files sorted by name. A job that
// has not finished (or failed before producing results) lists none.
func (s *Store) Artifacts(id string) ([]ArtifactFile, error) {
	return listDirFiles(s.ArtifactsDir(id))
}

// QuarantineFiles lists the job's quarantine entries (the .bin/.txt
// pairs written by resilience.Quarantine) sorted by name.
func (s *Store) QuarantineFiles(id string) ([]ArtifactFile, error) {
	return listDirFiles(s.QuarantineDir(id))
}

func listDirFiles(dir string) ([]ArtifactFile, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return []ArtifactFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	files := make([]ArtifactFile, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || resilience.IsAtomicTemp(e.Name()) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		files = append(files, ArtifactFile{Name: e.Name(), Size: info.Size()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
	return files, nil
}

// SafeName reports whether name is a plain file name (no separators, no
// traversal) — the only names the HTTP artifact and quarantine fetchers
// accept.
func SafeName(name string) bool {
	return name != "" && name != "." && name != ".." &&
		!strings.ContainsAny(name, "/\\") && filepath.Base(name) == name
}

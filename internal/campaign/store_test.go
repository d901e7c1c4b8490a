package campaign

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rvnegtest/internal/compliance"
)

func testSpec() JobSpec {
	s := JobSpec{Kind: KindFuzz, Execs: 1000}
	s.Normalize()
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	spec.Sims = []string{} // explicit-empty must survive the round trip
	job, err := st.NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "job-000001" || job.State != StateQueued {
		t.Fatalf("new job = %s/%s", job.ID, job.State)
	}
	got, err := st.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.Kind != KindFuzz || got.Spec.Execs != 1000 {
		t.Fatalf("spec did not round-trip: %+v", got.Spec)
	}
	if got.Spec.Sims == nil {
		t.Fatal("explicit-empty sims collapsed to nil through the store")
	}
	if _, err := st.Get("job-999999"); !errors.Is(err, ErrNoJob) {
		t.Fatalf("missing job error = %v, want ErrNoJob", err)
	}
}

func TestStoreIDsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.NewJob(testSpec()); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	job, err := st2.NewJob(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "job-000004" {
		t.Fatalf("reopened store allocated %s, want job-000004", job.ID)
	}
	jobs, err := st2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("listed %d jobs, want 4", len(jobs))
	}
	for i, j := range jobs {
		if want := i + 1; j.ID != filepath.Base(st2.JobDir(j.ID)) || jobs[i].ID <= "" || want == 0 {
			t.Fatalf("listing order broken at %d: %s", i, j.ID)
		}
		if i > 0 && jobs[i-1].ID >= j.ID {
			t.Fatalf("listing not ID-sorted: %s before %s", jobs[i-1].ID, j.ID)
		}
	}
}

func TestStoreArtifactsListing(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	job, err := st.NewJob(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	files, err := st.Artifacts(job.ID)
	if err != nil || len(files) != 0 {
		t.Fatalf("empty artifacts = %v, %v (want [], nil)", files, err)
	}
	adir := st.ArtifactsDir(job.ID)
	if err := os.MkdirAll(adir, 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(adir, "b.txt"), []byte("bb"), 0o644)
	os.WriteFile(filepath.Join(adir, "a.txt"), []byte("a"), 0o644)
	files, err = st.Artifacts(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0].Name != "a.txt" || files[0].Size != 1 || files[1].Name != "b.txt" {
		t.Fatalf("artifact listing = %+v", files)
	}
}

// TestWriteArtifactsReplacesAtomically: WriteArtifacts replaces a file
// by renaming a new one over it, never by rewriting it in place. A
// reader holding the old file (here a hard link) keeps the old bytes,
// and the listing skips WriteFileAtomic's temp files.
func TestWriteArtifactsReplacesAtomically(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job, err := st.NewJob(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	adir := st.ArtifactsDir(job.ID)
	if err := os.MkdirAll(adir, 0o755); err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(adir, ArtifactReport)
	held := filepath.Join(st.JobDir(job.ID), "held.txt")
	const old = "old report\n"
	if err := os.WriteFile(report, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Link(report, held); err != nil {
		t.Skipf("hard links unsupported here: %v", err)
	}
	// A temp file of a write in flight (or of one a crash cut short).
	if err := os.WriteFile(filepath.Join(adir, "."+ArtifactReport+".tmp123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	res := &Result{Kind: KindCompliance, Report: &compliance.Report{RefName: "reference", Cases: 1}}
	if err := res.WriteArtifacts(adir); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(held); string(got) != old {
		t.Errorf("the old file was rewritten in place: link reads %q, want %q", got, old)
	}
	if got, _ := os.ReadFile(report); string(got) != res.Report.Render() {
		t.Errorf("%s = %q, want the new report %q", ArtifactReport, got, res.Report.Render())
	}
	files, err := st.Artifacts(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0].Name != ArtifactReportJSON || files[1].Name != ArtifactReport {
		t.Errorf("artifact listing = %+v, want exactly %s and %s", files, ArtifactReportJSON, ArtifactReport)
	}
}

func TestSafeName(t *testing.T) {
	for name, want := range map[string]bool{
		"suite.txt": true, "report.json": true, "case-0a1b2c3d4e5f-0a1b.bin": true,
		"": false, ".": false, "..": false, "a/b": false, "../x": false, `a\b`: false,
	} {
		if SafeName(name) != want {
			t.Errorf("SafeName(%q) = %v, want %v", name, !want, want)
		}
	}
}

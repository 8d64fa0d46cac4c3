package workload

import (
	"strings"
	"testing"
)

func validJob() *Job {
	return &Job{
		ID: 1, User: 3, Group: 1, Submit: 100,
		Nodes: 4, MemPerNode: 8192, Estimate: 3600, BaseRuntime: 1800,
	}
}

func TestJobValidateOK(t *testing.T) {
	if err := validJob().Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
}

func TestJobValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Job)
		want   string
	}{
		{"zero id", func(j *Job) { j.ID = 0 }, "non-positive id"},
		{"negative submit", func(j *Job) { j.Submit = -1 }, "negative submit"},
		{"zero nodes", func(j *Job) { j.Nodes = 0 }, "non-positive node count"},
		{"negative cores", func(j *Job) { j.CoresPerNode = -1 }, "negative cores"},
		{"negative mem", func(j *Job) { j.MemPerNode = -1 }, "negative mem"},
		{"zero estimate", func(j *Job) { j.Estimate = 0 }, "non-positive estimate"},
		{"zero runtime", func(j *Job) { j.BaseRuntime = 0 }, "non-positive runtime"},
		{"submit past MaxSeconds", func(j *Job) { j.Submit = MaxSeconds + 1 }, "above MaxSeconds"},
		{"estimate past MaxSeconds", func(j *Job) { j.Estimate = MaxSeconds + 1 }, "above MaxSeconds"},
		{"runtime past MaxSeconds", func(j *Job) { j.BaseRuntime, j.Estimate = MaxSeconds+1, MaxSeconds+1 }, "above MaxSeconds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j := validJob()
			c.mutate(j)
			err := j.Validate()
			if err == nil {
				t.Fatal("invalid job accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestJobValidateAtMaxSeconds: MaxSeconds itself is a valid time.
func TestJobValidateAtMaxSeconds(t *testing.T) {
	j := validJob()
	j.Submit, j.Estimate, j.BaseRuntime = MaxSeconds, MaxSeconds, MaxSeconds
	if err := j.Validate(); err != nil {
		t.Fatalf("job at MaxSeconds rejected: %v", err)
	}
}

func TestJobDerived(t *testing.T) {
	j := validJob()
	if got := j.TotalMem(); got != 4*8192 {
		t.Fatalf("TotalMem = %d, want %d", got, 4*8192)
	}
	if got := j.Accuracy(); got != 0.5 {
		t.Fatalf("Accuracy = %g, want 0.5", got)
	}
	j.Estimate = 0
	if got := j.Accuracy(); got != 0 {
		t.Fatalf("Accuracy with zero estimate = %g, want 0", got)
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		StatePending:   "pending",
		StateRunning:   "running",
		StateCompleted: "completed",
		StateKilled:    "killed",
		State(99):      "state(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestWorkloadValidate(t *testing.T) {
	w := &Workload{Jobs: []*Job{validJob()}}
	if err := w.Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}

	dup := validJob()
	w = &Workload{Jobs: []*Job{validJob(), dup}}
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate IDs not rejected: %v", err)
	}

	a, b := validJob(), validJob()
	b.ID = 2
	b.Submit = a.Submit - 50
	w = &Workload{Jobs: []*Job{a, b}}
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "before previous arrival") {
		t.Fatalf("unsorted arrivals not rejected: %v", err)
	}
}

func TestWorkloadSort(t *testing.T) {
	a, b, c := validJob(), validJob(), validJob()
	a.ID, a.Submit = 3, 200
	b.ID, b.Submit = 1, 100
	c.ID, c.Submit = 2, 100
	w := &Workload{Jobs: []*Job{a, b, c}}
	w.Sort()
	gotIDs := []int{w.Jobs[0].ID, w.Jobs[1].ID, w.Jobs[2].ID}
	if gotIDs[0] != 1 || gotIDs[1] != 2 || gotIDs[2] != 3 {
		t.Fatalf("sorted order = %v, want [1 2 3]", gotIDs)
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("sorted workload invalid: %v", err)
	}
}

func TestWorkloadSpan(t *testing.T) {
	var empty Workload
	if f, l := empty.Span(); f != 0 || l != 0 {
		t.Fatalf("empty span = (%d,%d), want (0,0)", f, l)
	}
	a, b := validJob(), validJob()
	b.ID, b.Submit = 2, 500
	w := &Workload{Jobs: []*Job{a, b}}
	if f, l := w.Span(); f != 100 || l != 500 {
		t.Fatalf("span = (%d,%d), want (100,500)", f, l)
	}
}

func TestWorkloadCloneIsDeep(t *testing.T) {
	w := &Workload{Name: "x", Jobs: []*Job{validJob()}}
	cp := w.Clone()
	cp.Jobs[0].Estimate = 1
	if w.Jobs[0].Estimate == 1 {
		t.Fatal("Clone shares job pointers with the original")
	}
	if cp.Name != "x" || len(cp.Jobs) != 1 {
		t.Fatalf("clone lost data: %+v", cp)
	}
}

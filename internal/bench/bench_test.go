package bench

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestStandardWorkloads pins the workload set's shape: unique names, full
// Table-I zoo coverage on all three acceptance arrays, and stress layers
// with ≥512×512 IFMs marked as such.
func TestStandardWorkloads(t *testing.T) {
	ws := Standard()
	seen := map[string]bool{}
	perArray := map[string]int{}
	stress := 0
	for _, w := range ws {
		if seen[w.Name] {
			t.Errorf("duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
		if err := w.Layer.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.Stress {
			stress++
			if w.Layer.IW < 512 {
				t.Errorf("%s: stress layer IFM %d < 512", w.Name, w.Layer.IW)
			}
		} else {
			perArray[w.Array.String()]++
		}
	}
	// 10 VGG-13 + 5 ResNet-18 + 8 MobileNet-V2 distinct shapes per array.
	for _, a := range []string{"256x256", "512x512", "1024x1024"} {
		if perArray[a] != 23 {
			t.Errorf("%s: %d zoo workloads, want 23", a, perArray[a])
		}
	}
	if stress == 0 {
		t.Error("no stress workloads")
	}
	grouped := 0
	for _, w := range Standard() {
		if w.Layer.NumGroups() > 1 {
			grouped++
		}
	}
	if grouped < 9 {
		t.Errorf("%d grouped workloads, want the depthwise MobileNet-V2 rows on all arrays", grouped)
	}
}

// TestRunGroupedReportsDenseEquivalent pins the grouped bench rows' extra
// columns: the dense-equivalent feasible count must equal the grouped one
// (window feasibility is group-independent), and dense rows omit the fields.
func TestRunGroupedReportsDenseEquivalent(t *testing.T) {
	rep, err := Run(context.Background(), Options{Once: true, Filter: "MobileNet-V2/dw384@512x512"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != 1 {
		t.Fatalf("got %d workloads", len(rep.Workloads))
	}
	r := rep.Workloads[0]
	if r.DenseEquivalentCosted <= 0 {
		t.Fatalf("grouped row missing dense-equivalent stats: %+v", r)
	}
	if r.DenseEquivalentFeasible != r.CandidatesFeasible {
		t.Errorf("dense-equivalent feasible %d != grouped feasible %d (feasibility must be group-independent)",
			r.DenseEquivalentFeasible, r.CandidatesFeasible)
	}

	dense, err := Run(context.Background(), Options{Once: true, Filter: "VGG-13/conv9@512x512"})
	if err != nil {
		t.Fatal(err)
	}
	if d := dense.Workloads[0]; d.DenseEquivalentCosted != 0 || d.DenseEquivalentFeasible != 0 {
		t.Errorf("dense row carries dense-equivalent stats: %+v", d)
	}
}

// TestRunOnce runs the harness in smoke mode on a filtered slice and checks
// the report's candidate accounting against the core search directly.
func TestRunOnce(t *testing.T) {
	rep, err := Run(context.Background(), Options{Once: true, Filter: "VGG-13/conv9@512x512"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema || len(rep.Workloads) != 1 {
		t.Fatalf("report = %+v, want 1 workload under schema %q", rep, Schema)
	}
	r := rep.Workloads[0]
	l := core.Layer{Name: "conv9", IW: 14, IH: 14, KW: 3, KH: 3, IC: 512, OC: 512}
	res, err := core.SearchVWSDK(l, core.Array{Rows: 512, Cols: 512})
	if err != nil {
		t.Fatal(err)
	}
	if r.CandidatesCosted != res.Evaluated || r.CandidatesFeasible != res.Swept {
		t.Errorf("candidates = %d/%d, want %d/%d", r.CandidatesCosted, r.CandidatesFeasible,
			res.Evaluated, res.Swept)
	}
	if want := core.ExhaustiveCandidates(l, core.VariantFull); r.CandidatesExhaustive != want {
		t.Errorf("exhaustive candidates = %d, want %d", r.CandidatesExhaustive, want)
	}
	if r.Cycles != res.Best.Cycles || r.Tile != res.Best.TileString() {
		t.Errorf("anchor = %d/%s, want %d/%s", r.Cycles, r.Tile, res.Best.Cycles, res.Best.TileString())
	}
	if r.NsPerOp <= 0 || r.Iters != 1 {
		t.Errorf("timing = %d ns/op over %d iters, want positive ns over exactly 1 iter", r.NsPerOp, r.Iters)
	}
	if r.ExhaustiveNsPerOp <= 0 {
		t.Errorf("exhaustive timing missing for a Table-I workload: %+v", r)
	}
}

// TestRunStressSkipsExhaustiveTiming pins that stress workloads report the
// analytic exhaustive candidate count but never time the brute-force sweep.
func TestRunStressSkipsExhaustiveTiming(t *testing.T) {
	rep, err := Run(context.Background(), Options{Once: true, Filter: "stress/hd-512@512x512"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != 1 {
		t.Fatalf("got %d workloads", len(rep.Workloads))
	}
	r := rep.Workloads[0]
	if !r.Stress || r.ExhaustiveNsPerOp != 0 {
		t.Errorf("stress workload timed the exhaustive sweep: %+v", r)
	}
	if r.CandidatesExhaustive < 100000 {
		t.Errorf("stress exhaustive candidates = %d, want the intractable range", r.CandidatesExhaustive)
	}
	if r.Reduction < 10 {
		t.Errorf("stress reduction = %.1fx, want >= 10x", r.Reduction)
	}
	// Stress workloads must not drive the Table-I regression gate.
	if rep.MaxTable1Reduction != 0 {
		t.Errorf("stress workload leaked into MaxTable1Reduction = %v", rep.MaxTable1Reduction)
	}
}

// TestTimeItBenchtime checks the non-smoke loop iterates until the benchtime
// elapses.
func TestTimeItBenchtime(t *testing.T) {
	ns, _, iters := timeIt(Options{Benchtime: 5 * time.Millisecond}, func() {
		time.Sleep(100 * time.Microsecond)
	})
	if iters < 2 {
		t.Errorf("iters = %d, want several within the benchtime", iters)
	}
	if ns <= 0 {
		t.Errorf("ns/op = %d", ns)
	}
}

// TestWorkloadNamesAreFilterable spot-checks the name scheme the -filter
// flag and CI recipes rely on.
func TestWorkloadNamesAreFilterable(t *testing.T) {
	var names []string
	for _, w := range Standard() {
		names = append(names, w.Name)
	}
	all := strings.Join(names, "\n")
	for _, want := range []string{"VGG-13/conv1@256x256", "ResNet-18/conv5@1024x1024", "stress/hd-1024@512x512"} {
		if !strings.Contains(all, want) {
			t.Errorf("workload %q missing from:\n%s", want, all)
		}
	}
}

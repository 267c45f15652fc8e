package constraint

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestDroppedProblemIsCollected pins that solving a problem leaves nothing
// process-wide holding on to it: the static index and the collect
// prototypes live on the problem and its collect nodes, so once the last
// caller drops a compiled pack problem, the garbage collector frees it —
// a server replaying or re-registering packs must not accumulate them.
func TestDroppedProblemIsCollected(t *testing.T) {
	info := analyzeC(t, `
double addtwo(double* a, double* b, int i) {
    return a[i] + b[i];
}`, "addtwo")
	var probFreed, collectFreed atomic.Bool

	func() {
		prob := mustProblem(t, `
Constraint Reads
( {acc} is fadd instruction and
  collect i 1
  ( {read[i]} is load instruction and
    {read[i]} has data flow to {acc} ) )
End
`, "Reads", nil)
		// Stamp the problem the way a pack registration does.
		prob.PackVersion = 1
		prob.StoreID = ProblemStoreID("pack source", "Reads")
		Prepare(prob)
		and, ok := prob.Root.(*NAnd)
		if !ok {
			t.Fatalf("root is %T, want *NAnd", prob.Root)
		}
		var coll *NCollect
		for _, k := range and.Kids {
			if c, ok := k.(*NCollect); ok {
				coll = c
			}
		}
		if coll == nil {
			t.Fatal("problem has no top-level collect node")
		}
		if sols := NewSolver(prob, info).Solve(); len(sols) != 1 {
			t.Fatalf("solutions = %d, want 1", len(sols))
		}
		runtime.SetFinalizer(prob, func(*Problem) { probFreed.Store(true) })
		runtime.SetFinalizer(coll, func(*NCollect) { collectFreed.Store(true) })
	}()

	for i := 0; i < 50 && !(probFreed.Load() && collectFreed.Load()); i++ {
		runtime.GC()
		time.Sleep(2 * time.Millisecond)
	}
	if !probFreed.Load() {
		t.Error("solved problem still reachable after it was dropped")
	}
	if !collectFreed.Load() {
		t.Error("collect node still reachable after its problem was dropped")
	}
}

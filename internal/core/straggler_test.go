package core_test

import (
	"context"
	"math/big"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hypertree/internal/core"
	"hypertree/internal/sat"
)

// TestCheckFHDCtxStopsOnReduction: on a Theorem 3.2 reduction the lazy
// subedge generation trips its cap and Check(FHD,2) falls back to the
// eager h_{d,k} closure, whose enumeration runs far past any deadline
// unless it polls the context. The call must return within the
// deadline's slack and leave no goroutine behind.
func TestCheckFHDCtxStopsOnReduction(t *testing.T) {
	h := sat.BuildReduction(sat.Random3SAT(rand.New(rand.NewSource(1)), 3, 2)).H
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := core.CheckFHDCtx(ctx, h, big.NewRat(2, 1), core.FHDOptions{})
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("CheckFHDCtx returned after %v under a 20ms deadline (err %v)", el, err)
	}
	if err == nil {
		t.Skip("instance decided within the deadline; nothing to cancel")
	}
	time.Sleep(50 * time.Millisecond)
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines 50ms after return, %d before", n, before)
	}
}

package loadgen

import (
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// TestArrivalsDeterministic: the same seed and rate must produce a
// byte-identical arrival schedule — the property that lets a tail-latency
// regression replay from its seed.
func TestArrivalsDeterministic(t *testing.T) {
	const n = 10000
	render := func(seed uint64, rate float64) []byte {
		a := NewArrivals(seed, rate)
		buf := make([]byte, 0, 8*n)
		for i := 0; i < n; i++ {
			buf = binary.BigEndian.AppendUint64(buf, uint64(a.Next()))
		}
		return buf
	}
	x, y := render(42, 50_000), render(42, 50_000)
	if string(x) != string(y) {
		t.Fatal("same seed produced different arrival schedules")
	}
	if string(x) == string(render(43, 50_000)) {
		t.Fatal("different seeds produced identical schedules")
	}
	if string(x) == string(render(42, 25_000)) {
		t.Fatal("different rates produced identical schedules")
	}
}

// TestArrivalsRate: the empirical mean inter-arrival gap converges to
// 1/rate, and the schedule is non-decreasing.
func TestArrivalsRate(t *testing.T) {
	const (
		n    = 200_000
		rate = 10_000.0 // 10k/s -> 100µs mean gap
	)
	a := NewArrivals(7, rate)
	prev := int64(0)
	for i := 0; i < n; i++ {
		at := a.Next()
		if at < prev {
			t.Fatalf("arrival %d at %d before previous %d", i, at, prev)
		}
		prev = at
	}
	meanGap := float64(prev) / n
	wantGap := 1e9 / rate
	if math.Abs(meanGap-wantGap)/wantGap > 0.02 {
		t.Errorf("mean gap %.1f ns, want %.1f ±2%%", meanGap, wantGap)
	}
}

// TestArrivalsFastPathAllocs is the loadgen half of the allocs-gate: the
// arrival tick is on every request's path and must not allocate.
func TestArrivalsFastPathAllocs(t *testing.T) {
	a := NewArrivals(1, 1000)
	if got := testing.AllocsPerRun(1000, func() { a.Next() }); got != 0 {
		t.Errorf("Arrivals.Next allocates %.1f allocs/op, want 0", got)
	}
}

func TestArrivalsRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewArrivals(rate=%v) did not panic", rate)
				}
			}()
			NewArrivals(1, rate)
		}()
	}
}

// TestPacerAccountsLateness: a pacer driven slower than its schedule
// issues arrivals late and says so, rather than stretching the schedule.
func TestPacerAccountsLateness(t *testing.T) {
	// 1M/s: 1µs mean gaps, far faster than the 1ms stalls below.
	p := NewPacer(NewArrivals(3, 1_000_000))
	var lateSeen int64
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond) // the driver falls behind
		_, late := p.Tick()
		lateSeen += late
	}
	count, max, sum := p.Late()
	if count == 0 || sum == 0 {
		t.Fatalf("no lateness recorded by a driver 1000x slower than its schedule (count=%d sum=%d)", count, sum)
	}
	if max < int64(time.Millisecond)/2 {
		t.Errorf("max lateness %d ns implausibly small for 1ms stalls", max)
	}
	if lateSeen != sum {
		t.Errorf("Tick returned %d total lateness, Late() sums %d", lateSeen, sum)
	}
}

// TestPacerOnTime: a schedule the driver easily keeps up with shows at
// most timer-granularity slip — never the ms-scale lateness a stalled
// driver accrues. (Exact zero is not promised: time.Sleep overshoots by
// the platform timer granularity, and an exponential schedule can draw a
// gap shorter than that overshoot.) The best of three schedules is judged:
// one descheduling of the test's goroutine while other packages' tests
// load the host reads as lateness the pacer did not cause, and a pacer that
// really falls behind does so on every schedule.
func TestPacerOnTime(t *testing.T) {
	const bound = int64(5 * time.Millisecond)
	best := int64(math.MaxInt64)
	for try := 0; try < 3 && best > bound; try++ {
		p := NewPacer(NewArrivals(5, 1000)) // 1ms mean gaps
		for i := 0; i < 20; i++ {
			p.Tick()
		}
		if _, max, _ := p.Late(); max < best {
			best = max
		}
	}
	if best > bound {
		t.Errorf("max lateness %d ns on the best of three easy schedules; want < 5ms (timer granularity)", best)
	}
}

package sched

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"dismem/internal/stats"
)

func TestProfileInitialCapacity(t *testing.T) {
	p := NewProfile(100, 8, 4000)
	n, pool := p.CapacityAt(100)
	if n != 8 || pool != 4000 {
		t.Fatalf("capacity at start = (%d,%d), want (8,4000)", n, pool)
	}
	n, pool = p.CapacityAt(1 << 40)
	if n != 8 || pool != 4000 {
		t.Fatalf("capacity persists to infinity, got (%d,%d)", n, pool)
	}
}

func TestProfileAddRelease(t *testing.T) {
	p := NewProfile(0, 2, 100)
	p.AddRelease(50, 4, 200)
	if n, pool := p.CapacityAt(49); n != 2 || pool != 100 {
		t.Fatalf("before release: (%d,%d)", n, pool)
	}
	if n, pool := p.CapacityAt(50); n != 6 || pool != 300 {
		t.Fatalf("at release: (%d,%d), want (6,300)", n, pool)
	}
}

func TestProfileReserveWindow(t *testing.T) {
	p := NewProfile(0, 10, 1000)
	p.Reserve(20, 40, 3, 500)
	if n, pool := p.CapacityAt(19); n != 10 || pool != 1000 {
		t.Fatalf("before window: (%d,%d)", n, pool)
	}
	if n, pool := p.CapacityAt(20); n != 7 || pool != 500 {
		t.Fatalf("inside window: (%d,%d), want (7,500)", n, pool)
	}
	if n, pool := p.CapacityAt(39); n != 7 || pool != 500 {
		t.Fatalf("end of window: (%d,%d), want (7,500)", n, pool)
	}
	if n, pool := p.CapacityAt(40); n != 10 || pool != 1000 {
		t.Fatalf("after window: (%d,%d), want (10,1000)", n, pool)
	}
}

// TestProfileReserveBeforeOrigin: the part of a window before the
// profile's origin is dropped, so a window that ends at or before the
// origin is a no-op and one that straddles it starts at the origin.
func TestProfileReserveBeforeOrigin(t *testing.T) {
	p := NewProfile(40, 8, 1000)
	p.Reserve(10, 20, 3, 500) // entirely before the origin
	p.Reserve(10, 40, 3, 500) // ends exactly at the origin
	if len(p.points) != 1 {
		t.Fatalf("windows before the origin added breakpoints: %+v", p.points)
	}
	if n, pool := p.CapacityAt(40); n != 8 || pool != 1000 {
		t.Fatalf("capacity after no-op reservations = (%d,%d), want (8,1000)", n, pool)
	}
	p.Reserve(30, 60, 3, 500) // straddles the origin
	if n, pool := p.CapacityAt(40); n != 5 || pool != 500 {
		t.Fatalf("capacity at origin = (%d,%d), want (5,500)", n, pool)
	}
	if n, pool := p.CapacityAt(59); n != 5 || pool != 500 {
		t.Fatalf("capacity at window end = (%d,%d), want (5,500)", n, pool)
	}
	if n, pool := p.CapacityAt(60); n != 8 || pool != 1000 {
		t.Fatalf("capacity after window = (%d,%d), want (8,1000)", n, pool)
	}
}

func TestProfileEarliestFitImmediate(t *testing.T) {
	p := NewProfile(5, 4, 100)
	if got := p.EarliestFit(5, 10, 4, 100, math.MaxInt64); got != 5 {
		t.Fatalf("EarliestFit = %d, want 5 (fits now)", got)
	}
}

func TestProfileEarliestFitAfterRelease(t *testing.T) {
	p := NewProfile(0, 1, 0)
	p.AddRelease(30, 3, 600)
	if got := p.EarliestFit(0, 10, 4, 500, math.MaxInt64); got != 30 {
		t.Fatalf("EarliestFit = %d, want 30", got)
	}
}

func TestProfileEarliestFitSkipsBusyWindow(t *testing.T) {
	p := NewProfile(0, 10, 1000)
	p.Reserve(10, 50, 8, 0)
	// Need 5 nodes for 20s: [0,10) too short, inside [10,50) only 2
	// free, so earliest is 50.
	if got := p.EarliestFit(0, 20, 5, 0, math.MaxInt64); got != 50 {
		t.Fatalf("EarliestFit = %d, want 50", got)
	}
	// A short job that fits before the window starts at 0... duration
	// 10 ends exactly at the window edge (end-exclusive) so it fits.
	if got := p.EarliestFit(0, 10, 5, 0, math.MaxInt64); got != 0 {
		t.Fatalf("EarliestFit(short) = %d, want 0", got)
	}
}

func TestProfileEarliestFitNever(t *testing.T) {
	p := NewProfile(0, 2, 0)
	if got := p.EarliestFit(0, 10, 5, 0, math.MaxInt64); got != math.MaxInt64 {
		t.Fatalf("EarliestFit beyond capacity = %d, want MaxInt64", got)
	}
}

func TestProfileEarliestFitPoolDimension(t *testing.T) {
	p := NewProfile(0, 10, 100)
	p.Reserve(0, 100, 0, 80) // pool mostly taken until t=100
	if got := p.EarliestFit(0, 10, 1, 50, math.MaxInt64); got != 100 {
		t.Fatalf("EarliestFit pool-bound = %d, want 100", got)
	}
	if got := p.EarliestFit(0, 10, 1, 20, math.MaxInt64); got != 0 {
		t.Fatalf("EarliestFit small pool need = %d, want 0", got)
	}
}

func TestProfileReserveAllowsNegative(t *testing.T) {
	p := NewProfile(0, 2, 10)
	p.Reserve(0, 10, 5, 50) // over-reserve (exact placement used more)
	n, pool := p.CapacityAt(5)
	if n != -3 || pool != -40 {
		t.Fatalf("capacity = (%d,%d), want (-3,-40)", n, pool)
	}
	// Nothing fits while negative; fits after.
	if got := p.EarliestFit(0, 5, 1, 1, math.MaxInt64); got != 10 {
		t.Fatalf("EarliestFit over negative window = %d, want 10", got)
	}
}

func TestProfileEarliestFitPanicsOnZeroDur(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EarliestFit(dur=0) did not panic")
		}
	}()
	NewProfile(0, 1, 1).EarliestFit(0, 0, 1, 1, math.MaxInt64)
}

// TestProfileFitNeverViolatesCapacity: for random profiles, any window
// returned by EarliestFit must actually satisfy the requested capacity
// at every breakpoint inside the window.
func TestProfileFitNeverViolatesCapacity(t *testing.T) {
	check := func(seed uint16) bool {
		rng := stats.NewRNG(uint64(seed))
		p := NewProfile(0, 8, 1000)
		// Random busy windows.
		for i := 0; i < 12; i++ {
			start := rng.Int63n(200)
			end := start + 1 + rng.Int63n(100)
			p.Reserve(start, end, int(rng.Intn(4)), rng.Int63n(300))
		}
		// Random releases.
		for i := 0; i < 6; i++ {
			p.AddRelease(rng.Int63n(300), int(rng.Intn(3)), rng.Int63n(200))
		}
		for trial := 0; trial < 20; trial++ {
			need := int(rng.Intn(8)) + 1
			pool := rng.Int63n(800)
			dur := rng.Int63n(80) + 1
			at := p.EarliestFit(0, dur, need, pool, math.MaxInt64)
			if at == math.MaxInt64 {
				continue
			}
			// Verify capacity across the whole window by sampling every
			// breakpoint plus both edges.
			for _, tt := range sampleTimes(p, at, at+dur) {
				n, pl := p.CapacityAt(tt)
				if n < need || pl < pool {
					t.Logf("window [%d,%d): need (%d,%d) but capacity (%d,%d) at %d",
						at, at+dur, need, pool, n, pl, tt)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func sampleTimes(p *Profile, start, end int64) []int64 {
	ts := []int64{start, end - 1}
	for _, pt := range p.points {
		if pt.t > start && pt.t < end {
			ts = append(ts, pt.t)
		}
	}
	return ts
}

// earliestFitRef is the candidate x window scan that EarliestFit's
// one-pass form replaced, kept as its differential oracle: try from and
// every later breakpoint as a start, and return the first start whose
// whole window fits.
func earliestFitRef(p *Profile, from, dur int64, nodes int, pool int64) int64 {
	if from < p.points[0].t {
		from = p.points[0].t
	}
	// Candidate starts: `from` and every later breakpoint (capacity
	// only changes there).
	cands := []int64{from}
	for _, pt := range p.points {
		if pt.t > from {
			cands = append(cands, pt.t)
		}
	}
	for _, start := range cands {
		if windowFitsRef(p, start, start+dur, nodes, pool) {
			return start
		}
	}
	// Capacity after the last breakpoint is constant; if the tail does
	// not fit, nothing ever will (caller guarantees feasibility).
	return math.MaxInt64
}

// windowFitsRef reports whether capacity >= (nodes, pool) throughout
// [start, end).
func windowFitsRef(p *Profile, start, end int64, nodes int, pool int64) bool {
	i := sort.Search(len(p.points), func(i int) bool { return p.points[i].t > start })
	if i > 0 {
		i--
	}
	for ; i < len(p.points); i++ {
		pt := p.points[i]
		if pt.t >= end {
			break
		}
		// Interval [pt.t, next.t) overlaps [start, end)?
		if i+1 < len(p.points) && p.points[i+1].t <= start {
			continue
		}
		if pt.nodes < nodes || pt.pool < pool {
			return false
		}
	}
	return true
}

// TestProfileEarliestFitMatchesReference requires EarliestFit to return
// exactly the reference scan's start on random profiles. A valid but
// later start passes TestProfileFitNeverViolatesCapacity, yet it delays
// reservations and changes every conservative-backfill result. The
// generator covers open-ended reservations, releases on both sides of
// the origin, over-reservation into negative capacity, queries from
// before the origin, and needs of zero and beyond total capacity. Each
// query also runs under a random wall: none, the profile's own, a
// breakpoint, an arbitrary time, or exactly where the reference's
// window ends; the answer must be the reference's start if its window
// ends by the wall and math.MaxInt64 otherwise. The profile's
// maintained wall must equal a scan for its first breakpoint without a
// free node. The coverage counts below fail the test if any case stops
// occurring.
func TestProfileEarliestFitMatchesReference(t *testing.T) {
	const profiles = 10000
	rng := stats.NewRNG(13)
	var seen struct {
		openEnd, releaseBefore, negative, fromBefore, zeroNeed, overNeed, never, later int
		walled, endsAtWall, crossesWall, profileWall                                   int
	}
	for n := 0; n < profiles; n++ {
		origin := rng.Int63n(1000)
		nodes, pool := 1+rng.Intn(32), rng.Int63n(4096)
		p := NewProfile(origin, nodes, pool)
		// Totals over the profile's lifetime, for the over-capacity needs.
		maxNodes, maxPool := nodes, pool
		for i := rng.Intn(10); i > 0; i-- {
			at := origin - 100 + rng.Int63n(600)
			if at < origin {
				seen.releaseBefore++
			}
			dn, dp := rng.Intn(16), rng.Int63n(2048)
			p.AddRelease(at, dn, dp)
			maxNodes, maxPool = maxNodes+dn, maxPool+dp
		}
		for i := rng.Intn(16); i > 0; i-- {
			start := origin - 50 + rng.Int63n(500)
			end := start + 1 + rng.Int63n(300)
			if rng.Intn(6) == 0 {
				end = math.MaxInt64
				seen.openEnd++
			}
			// Up to twice the initial capacity: over-reservation
			// drives capacity negative.
			p.Reserve(start, end, rng.Intn(2*nodes+1), rng.Int63n(2*pool+1))
		}
		for _, pt := range p.points {
			if pt.nodes < 0 || pt.pool < 0 {
				seen.negative++
				break
			}
		}
		if scan := scanWall(p); p.wall != scan {
			t.Fatalf("profile %d: maintained wall %d, a scan finds %d\npoints: %+v", n, p.wall, scan, p.points)
		}
		if p.wall < math.MaxInt64 {
			seen.profileWall++
		}
		for q := 0; q < 8; q++ {
			from := origin - 100 + rng.Int63n(800)
			if from < origin {
				seen.fromBefore++
			}
			dur := 1 + rng.Int63n(400)
			need, needPool := rng.Intn(maxNodes+3), rng.Int63n(maxPool+512)
			switch {
			case need == 0 || needPool == 0:
				seen.zeroNeed++
			case need > maxNodes || needPool > maxPool:
				seen.overNeed++
			}
			got := p.EarliestFit(from, dur, need, needPool, math.MaxInt64)
			want := earliestFitRef(p, from, dur, need, needPool)
			if got != want {
				t.Fatalf("profile %d query %d: EarliestFit(from=%d, dur=%d, need=(%d,%d)) = %d, reference %d\npoints: %+v",
					n, q, from, dur, need, needPool, got, want, p.points)
			}
			var wall int64
			switch rng.Intn(5) {
			case 0:
				wall = math.MaxInt64
			case 1:
				wall = p.wall
			case 2:
				wall = p.points[rng.Intn(len(p.points))].t
			case 3:
				wall = origin - 100 + rng.Int63n(1000)
			default:
				wall = want + dur // the reference's window ends at the wall
				if want == math.MaxInt64 {
					wall = math.MaxInt64
				}
			}
			wantWalled := want
			if want < math.MaxInt64 && want+dur > wall {
				wantWalled = math.MaxInt64
				seen.crossesWall++
			}
			if want < math.MaxInt64 && want+dur == wall {
				seen.endsAtWall++
			}
			if wall < math.MaxInt64 {
				seen.walled++
			}
			if got := p.EarliestFit(from, dur, need, needPool, wall); got != wantWalled {
				t.Fatalf("profile %d query %d: EarliestFit(from=%d, dur=%d, need=(%d,%d), wall=%d) = %d, want %d (unbounded reference %d)\npoints: %+v",
					n, q, from, dur, need, needPool, wall, got, wantWalled, want, p.points)
			}
			switch {
			case want == math.MaxInt64:
				seen.never++
			case want > from && want > origin:
				seen.later++
			}
		}
	}
	t.Logf("coverage: %+v", seen)
	for name, c := range map[string]int{
		"open-ended reservations": seen.openEnd, "releases before the origin": seen.releaseBefore,
		"negative capacity": seen.negative, "from before the origin": seen.fromBefore,
		"zero needs": seen.zeroNeed, "needs beyond total capacity": seen.overNeed,
		"never-fitting queries": seen.never, "delayed starts": seen.later,
		"walled queries": seen.walled, "windows ending at the wall": seen.endsAtWall,
		"windows crossing the wall": seen.crossesWall, "profiles with a wall": seen.profileWall,
	} {
		if c == 0 {
			t.Errorf("generator never produced %s", name)
		}
	}
}

// Package apps implements the paper's five full TM applications (Sec. VII,
// Table II): boruvka (minimum spanning tree, written from scratch like the
// paper's) and kmeans, ssca2, genome, and vacation (re-implementations of
// the STAMP kernels' transactional behaviour). Each validates its final
// state against a sequential reference or invariant set.
package apps

import (
	"fmt"

	"commtm"
	"commtm/internal/workloads/inputs"
	"commtm/internal/xrand"
)

// KMeans clusters P integer points in D dimensions into K clusters (STAMP
// kmeans). Each iteration threads assign their points to the nearest
// centroid (read-only sharing of the centroids) and transactionally
// accumulate each point into its cluster's running sums and count — the
// commutative additions of Table II (ADD label), which serialize the
// baseline HTM and run conflict-free under CommTM. A sequential phase
// recomputes the centroids. Integer coordinates make the accumulation
// exactly associative, so the parallel result must equal the sequential
// reference bit-for-bit.
type KMeans struct {
	Points, Dims, K, Iters int
	Seed                   uint64

	threads int
	add     commtm.LabelID
	inputs  *inputs.Arena

	pts   []uint64 // host-side copy (coordinates are small non-negatives)
	ptsA  commtm.Addr
	centA commtm.Addr
	sumsA []commtm.Addr // per-cluster accumulators: D sum words + 1 count

	wantCents []uint64
}

// NewKMeans builds the workload with fixed iterations for determinism.
func NewKMeans(points, dims, k, iters int, seed uint64) *KMeans {
	return &KMeans{Points: points, Dims: dims, K: k, Iters: iters, Seed: seed}
}

// KMeansName is the workload's registry/row name.
const KMeansName = "kmeans"

// Name implements harness.Workload.
func (km *KMeans) Name() string { return KMeansName }

// UseInputs implements inputs.User.
func (km *KMeans) UseInputs(a *inputs.Arena) { km.inputs = a }

// kmeansInput is the machine-independent generated input: the point cloud
// and the sequential reference centroids (the expensive part — Iters full
// passes over the data). Read-only after generation.
type kmeansInput struct {
	pts       []uint64
	wantCents []uint64
}

func (km *KMeans) gen() []uint64 {
	rng := xrand.New(km.Seed*2654435761 + 1)
	pts := make([]uint64, km.Points*km.Dims)
	centers := make([]uint64, km.K*km.Dims)
	for i := range centers {
		centers[i] = uint64(rng.Intn(1000)) + 100
	}
	for p := 0; p < km.Points; p++ {
		c := rng.Intn(km.K)
		for d := 0; d < km.Dims; d++ {
			pts[p*km.Dims+d] = centers[c*km.Dims+d] + uint64(rng.Intn(41))
		}
	}
	return pts
}

// nearest returns the closest centroid by squared distance (ties to the
// lowest index), identical in the simulated and reference versions.
func nearest(cents []uint64, k, dims int, pt []uint64) int {
	best, bestD := 0, ^uint64(0)
	for c := 0; c < k; c++ {
		var dist uint64
		for d := 0; d < dims; d++ {
			diff := int64(pt[d]) - int64(cents[c*dims+d])
			dist += uint64(diff * diff)
		}
		if dist < bestD {
			best, bestD = c, dist
		}
	}
	return best
}

// reference runs the same algorithm sequentially on the host.
func (km *KMeans) reference(pts []uint64) []uint64 {
	cents := make([]uint64, km.K*km.Dims)
	copy(cents, pts[:km.K*km.Dims]) // first K points seed the centroids
	sums := make([]uint64, km.K*km.Dims)
	counts := make([]uint64, km.K)
	for it := 0; it < km.Iters; it++ {
		for i := range sums {
			sums[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for p := 0; p < km.Points; p++ {
			pt := pts[p*km.Dims : (p+1)*km.Dims]
			c := nearest(cents, km.K, km.Dims, pt)
			for d := 0; d < km.Dims; d++ {
				sums[c*km.Dims+d] += pt[d]
			}
			counts[c]++
		}
		for c := 0; c < km.K; c++ {
			if counts[c] == 0 {
				continue
			}
			for d := 0; d < km.Dims; d++ {
				cents[c*km.Dims+d] = sums[c*km.Dims+d] / counts[c]
			}
		}
	}
	return cents
}

// Setup implements harness.Workload.
func (km *KMeans) Setup(m *commtm.Machine) {
	km.threads = m.Config().Threads
	km.add = m.DefineLabel(commtm.AddLabel("ADD"))
	in := inputs.Load(km.inputs,
		inputs.Key{Kind: KMeansName, Params: fmt.Sprintf("p=%d d=%d k=%d it=%d", km.Points, km.Dims, km.K, km.Iters), Seed: km.Seed},
		func() *kmeansInput {
			pts := km.gen()
			return &kmeansInput{pts: pts, wantCents: km.reference(pts)}
		})
	km.pts, km.wantCents = in.pts, in.wantCents

	km.ptsA = m.AllocWords(km.Points * km.Dims)
	for i, v := range km.pts {
		m.MemWrite64(km.ptsA+commtm.Addr(i*8), v)
	}
	km.centA = m.AllocLines((km.K*km.Dims*8 + commtm.LineBytes - 1) / commtm.LineBytes)
	for i := 0; i < km.K*km.Dims; i++ {
		m.MemWrite64(km.centA+commtm.Addr(i*8), km.pts[i])
	}
	km.sumsA = make([]commtm.Addr, km.K)
	for c := range km.sumsA {
		km.sumsA[c] = m.AllocLines((km.Dims+1)*8/commtm.LineBytes + 1)
	}
}

// Params implements sweep.Parameterized.
func (km *KMeans) Params() (string, bool) {
	return fmt.Sprintf("p=%d d=%d k=%d it=%d wseed=%d", km.Points, km.Dims, km.K, km.Iters, km.Seed), true
}

// Body implements harness.Workload.
func (km *KMeans) Body(t *commtm.Thread) {
	id := t.ID()
	lo := km.Points * id / km.threads
	hi := km.Points * (id + 1) / km.threads
	pt := make([]uint64, km.Dims)
	cents := make([]uint64, km.K*km.Dims)
	for it := 0; it < km.Iters; it++ {
		// Assignment phase: centroids are read-only shared (S state); each
		// thread caches them once per iteration like the real code.
		for i := range cents {
			cents[i] = t.Load64(km.centA + commtm.Addr(i*8))
		}
		for p := lo; p < hi; p++ {
			for d := 0; d < km.Dims; d++ {
				pt[d] = t.Load64(km.ptsA + commtm.Addr((p*km.Dims+d)*8))
			}
			t.Cycles(uint64(3 * km.K * km.Dims)) // distance arithmetic
			c := nearest(cents, km.K, km.Dims, pt)
			base := km.sumsA[c]
			t.Txn(func() {
				for d := 0; d < km.Dims; d++ {
					a := base + commtm.Addr(d*8)
					t.StoreL(a, km.add, t.LoadL(a, km.add)+pt[d])
				}
				cnt := base + commtm.Addr(km.Dims*8)
				t.StoreL(cnt, km.add, t.LoadL(cnt, km.add)+1)
			})
		}
		t.Barrier()
		if id == 0 {
			// Sequential phase: recompute centroids. The conventional loads
			// trigger reductions of the accumulated partials.
			for c := 0; c < km.K; c++ {
				base := km.sumsA[c]
				count := t.Load64(base + commtm.Addr(km.Dims*8))
				if count != 0 {
					for d := 0; d < km.Dims; d++ {
						sum := t.Load64(base + commtm.Addr(d*8))
						t.Store64(km.centA+commtm.Addr((c*km.Dims+d)*8), sum/count)
					}
				}
				for d := 0; d <= km.Dims; d++ {
					t.Store64(base+commtm.Addr(d*8), 0)
				}
			}
		}
		t.Barrier()
	}
}

// Validate implements harness.Workload.
func (km *KMeans) Validate(m *commtm.Machine) error {
	for i, want := range km.wantCents {
		if got := m.MemRead64(km.centA + commtm.Addr(i*8)); got != want {
			return fmt.Errorf("centroid word %d = %d, want %d", i, got, want)
		}
	}
	return nil
}

// share returns the number of operations thread id performs out of total.
func share(total, threads, id int) int {
	base := total / threads
	if id < total%threads {
		return base + 1
	}
	return base
}

package micro

import (
	"fmt"

	"commtm"
	"commtm/internal/workloads/inputs"
)

// OPut is the Sec. VI ordered-put (priority update) microbenchmark
// (Fig. 13): threads replace a shared key-value pair when the new key is
// lower. The operation commutes semantically: only the minimum survives. On
// CommTM each cache keeps a local candidate minimum under the OPUT label
// and the reduction keeps the lowest; on the baseline only puts with
// smaller keys write, so it scales partially (the paper measures 31x).
type OPut struct {
	Ops int

	threads int
	oput    commtm.LabelID
	pair    commtm.Addr // words {key, value}
	mins    []uint64    // per-thread local minimum generated (for Validate)
	inputs  *inputs.Arena
	keys    [][]uint64 // cached per-thread key streams (nil = draw live)
}

// NewOPut builds the workload with the given total put count.
func NewOPut(ops int) *OPut { return &OPut{Ops: ops} }

// OPutName is the workload's registry/row name.
const OPutName = "oput"

// Name implements harness.Workload.
func (o *OPut) Name() string { return OPutName }

// UseInputs implements inputs.User.
func (o *OPut) UseInputs(a *inputs.Arena) { o.inputs = a }

// valueOf derives the value word deterministically from the key so Validate
// can detect torn pairs.
func valueOf(k uint64) uint64 { return k ^ 0x5bd1e995 }

// oputInput is the cached op stream: each thread's keys, precomputed with
// commtm.ArchRand so replay equals the live Thread.Rand draws bit for bit,
// plus the per-thread minima Validate needs. Read-only after generation.
type oputInput struct {
	keys [][]uint64
	mins []uint64
}

// Setup implements harness.Workload.
func (o *OPut) Setup(m *commtm.Machine) {
	o.threads = m.Config().Threads
	o.oput = m.DefineLabel(commtm.OPutLabel("OPUT"))
	o.pair = m.AllocLines(1)
	m.MemWrite64(o.pair, ^uint64(0)) // identity key
	// Host-side op streams: the cached per-thread key streams when an input
	// arena is wired, or fresh live-draw minima otherwise.
	seed := m.Config().Seed
	if o.inputs != nil {
		in := inputs.Load(o.inputs,
			inputs.Key{Kind: OPutName, Params: fmt.Sprintf("ops=%d t=%d", o.Ops, o.threads), Seed: seed},
			func() *oputInput {
				in := &oputInput{keys: make([][]uint64, o.threads), mins: make([]uint64, o.threads)}
				for id := 0; id < o.threads; id++ {
					rng := commtm.ArchRand(seed, id)
					n := share(o.Ops, o.threads, id)
					ks := make([]uint64, n)
					min := ^uint64(0)
					for i := range ks {
						ks[i] = rng.Uint64()
						if ks[i] < min {
							min = ks[i]
						}
					}
					in.keys[id], in.mins[id] = ks, min
				}
				return in
			})
		o.keys, o.mins = in.keys, in.mins
		return
	}
	o.mins = make([]uint64, o.threads)
	for i := range o.mins {
		o.mins[i] = ^uint64(0)
	}
}

// Params implements sweep.Parameterized.
func (o *OPut) Params() (string, bool) {
	return fmt.Sprintf("ops=%d", o.Ops), true
}

// Body implements harness.Workload.
func (o *OPut) Body(t *commtm.Thread) {
	id := t.ID()
	n := share(o.Ops, o.threads, id)
	put := func(k uint64) {
		t.Txn(func() {
			cur := t.LoadL(o.pair, o.oput)
			if k < cur {
				t.StoreL(o.pair, o.oput, k)
				t.StoreL(o.pair+8, o.oput, valueOf(k))
			}
		})
	}
	if o.keys != nil {
		for _, k := range o.keys[id] {
			put(k)
		}
		return
	}
	rng := t.Rand()
	for i := 0; i < n; i++ {
		k := rng.Uint64()
		if k < o.mins[id] {
			o.mins[id] = k
		}
		put(k)
	}
}

// Validate implements harness.Workload.
func (o *OPut) Validate(m *commtm.Machine) error {
	want := ^uint64(0)
	for _, v := range o.mins {
		if v < want {
			want = v
		}
	}
	gotK := m.MemRead64(o.pair)
	gotV := m.MemRead64(o.pair + 8)
	if gotK != want {
		return fmt.Errorf("final key = %#x, want global min %#x", gotK, want)
	}
	if gotV != valueOf(gotK) {
		return fmt.Errorf("torn pair: value %#x does not match key %#x", gotV, gotK)
	}
	return nil
}

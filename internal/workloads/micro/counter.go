package micro

import (
	"fmt"

	"commtm"
)

// Counter is the Sec. VI counter microbenchmark (Fig. 9): all threads
// increment one shared counter inside transactions. On CommTM the
// increments use the ADD label and proceed concurrently in U state; on the
// baseline every transaction conflicts on the counter line.
type Counter struct {
	Ops int // total increments across all threads

	threads int
	add     commtm.LabelID
	ctr     commtm.Addr
}

// NewCounter builds the workload with the given total increment count.
func NewCounter(ops int) *Counter { return &Counter{Ops: ops} }

// CounterName is the workload's registry/row name.
const CounterName = "counter"

// Name implements harness.Workload.
func (c *Counter) Name() string { return CounterName }

// Counter has no generated input (its op stream is a plain loop), so it
// does not implement inputs.User; the sweep engine runs it unchanged.

// Setup implements harness.Workload.
func (c *Counter) Setup(m *commtm.Machine) {
	c.threads = m.Config().Threads
	c.add = m.DefineLabel(commtm.AddLabel("ADD"))
	c.ctr = m.AllocLines(1)
}

// Params implements sweep.Parameterized.
func (c *Counter) Params() (string, bool) {
	return fmt.Sprintf("ops=%d", c.Ops), true
}

// Body implements harness.Workload.
func (c *Counter) Body(t *commtm.Thread) {
	n := share(c.Ops, c.threads, t.ID())
	for i := 0; i < n; i++ {
		t.Txn(func() {
			v := t.LoadL(c.ctr, c.add)
			t.StoreL(c.ctr, c.add, v+1)
		})
	}
}

// Validate implements harness.Workload.
func (c *Counter) Validate(m *commtm.Machine) error {
	if got := m.MemRead64(c.ctr); got != uint64(c.Ops) {
		return fmt.Errorf("counter = %d, want %d", got, c.Ops)
	}
	return nil
}

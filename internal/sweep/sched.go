// The engine's scheduler: cell hand-out with configuration affinity and
// chunked, affinity-aware stealing. It only orders which worker runs which
// cell next; results and sinks are the emitter's business.
package sweep

import (
	"sync"

	"commtm"
)

// sched hands out cells with configuration affinity: cells are grouped by
// arena key, a worker drains the group it owns before claiming another, and
// once every group is owned, idle workers steal — in chunks — from a victim
// group. A steal splits off half the victim's remainder as a new private
// group owned by the stealer, so the stealer builds one machine for the
// configuration and drains its chunk without further contention, instead of
// re-stealing (and re-building machines for) a different configuration
// after every single cell — at worker counts far above the number of
// distinct configurations, one-at-a-time stealing made every stealer a
// machine factory. Victim selection is affinity-aware: a stealer prefers
// groups whose configuration it already has pooled machines (and snapshots)
// for — those steals cost no machine build at all — and falls back to the
// largest remainder otherwise. With a single group the scheduler
// degenerates to the plain shared index-order queue, which is how ReuseOff
// runs.
type sched struct {
	mu     sync.Mutex
	groups []*schedGroup
}

type schedGroup struct {
	key   commtm.Config // arena key of the group's cells (split groups inherit it)
	cells []int         // cell indexes, in index order (shared by split groups)
	next  int           // cells[next:end] still to hand out from this group
	end   int
	owned bool
}

func (g *schedGroup) remaining() int { return g.end - g.next }

// newSched groups cell indexes by arena key in first-appearance order (so
// group order tracks index order); byConfig=false puts every cell in one
// shared group.
func newSched(cells []Cell, byConfig bool) *sched {
	s := &sched{}
	if !byConfig {
		all := &schedGroup{cells: make([]int, len(cells))}
		for i := range cells {
			all.cells[i] = i
		}
		all.end = len(all.cells)
		s.groups = append(s.groups, all)
		return s
	}
	byKey := make(map[commtm.Config]*schedGroup)
	for i, c := range cells {
		k := arenaKey(c)
		g := byKey[k]
		if g == nil {
			g = &schedGroup{key: k}
			byKey[k] = g
			s.groups = append(s.groups, g)
		}
		g.cells = append(g.cells, i)
		g.end = len(g.cells)
	}
	return s
}

// next returns the next cell index for a worker whose current group is cur
// (nil at start). It prefers the current group, then an unowned group, then
// steals half the remainder of a victim group as a new group owned by the
// caller. have — nil when the worker pools no machines — reports whether
// the worker already holds a pooled machine for a configuration; among
// steal victims, groups the worker has affinity with win (largest remainder
// among them), then the overall largest remainder. have is called with
// s.mu held, so it must not take locks ordered before the scheduler's.
// ok=false means the sweep is fully claimed.
func (s *sched) next(cur *schedGroup, have func(commtm.Config) bool) (g *schedGroup, cell int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	take := func(g *schedGroup) (*schedGroup, int, bool) {
		i := g.cells[g.next]
		g.next++
		return g, i, true
	}
	if cur != nil && cur.remaining() > 0 {
		return take(cur)
	}
	for _, g := range s.groups {
		if !g.owned && g.remaining() > 0 {
			g.owned = true
			return take(g)
		}
	}
	// All groups owned: pick a steal victim. Chunked: split off the tail
	// half as the caller's private group (stolen chunks are owned, so they
	// are themselves steal victims only by remainder size).
	var best *schedGroup
	if have != nil {
		for _, g := range s.groups {
			if g.remaining() > 0 && have(g.key) && (best == nil || g.remaining() > best.remaining()) {
				best = g
			}
		}
	}
	if best == nil {
		for _, g := range s.groups {
			if g.remaining() > 0 && (best == nil || g.remaining() > best.remaining()) {
				best = g
			}
		}
	}
	if best == nil {
		return nil, 0, false
	}
	k := best.remaining() / 2
	if k == 0 {
		k = 1
	}
	ng := &schedGroup{key: best.key, cells: best.cells, next: best.end - k, end: best.end, owned: true}
	best.end -= k
	s.groups = append(s.groups, ng)
	return take(ng)
}

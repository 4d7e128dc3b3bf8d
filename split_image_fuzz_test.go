package commtm_test

import (
	"testing"

	"commtm"
	"commtm/internal/harness"
	"commtm/internal/workloads/apps"
	"commtm/internal/workloads/micro"
	"commtm/internal/workloads/snapshots"
)

// tiFuzzWorkload builds a fuzz target workload from the thread-invariant
// opt-in set (the only workloads whose base images may legally cross
// geometries). Adjacent sel values pick different workloads (apart from the
// 255→0 wrap), which the arena scenario uses to put a second base in the
// arena between the two cells that share one.
func tiFuzzWorkload(sel uint8, ops uint16) harness.Workload {
	n := int(ops)%200 + 20
	switch sel % 3 {
	case 0:
		return micro.NewCounter(n)
	case 1:
		return micro.NewOPut(n)
	default:
		return apps.NewKMeans(n/2+16, 2, 2, 1, 11)
	}
}

// FuzzSplitImageRestore fuzzes the split-image contract: a base image
// captured post-Setup at one thread count, adopted by RestoreBase +
// AdoptBaseHost at a possibly different thread count, must make the adopting
// machine bit-identical to one that ran Setup itself at the target geometry —
// across dirty-machine interleavings (random other workload, optionally
// dying mid-run with no Reset before the restore), base→overlay→full-image
// round trips (capture the overlay on the adopted state, Reset, Restore it),
// and repeated adoption of the same base. A second scenario drives the same
// sequence through a snapshots.Arena: the geometry-B cell adopts the base
// (or full image) the geometry-A cell captured, with another workload's
// capture in between, and must still match a fresh run.
func FuzzSplitImageRestore(f *testing.F) {
	f.Add(uint16(120), uint8(0), uint8(2), uint8(1), uint64(1), uint8(0), uint8(3), uint16(80), false, false, false)
	f.Add(uint16(50), uint8(3), uint8(0), uint8(0), uint64(42), uint8(1), uint8(5), uint16(200), true, true, true)
	f.Add(uint16(220), uint8(1), uint8(1), uint8(2), uint64(7), uint8(2), uint8(2), uint16(40), false, true, true)

	f.Fuzz(func(t *testing.T, ops uint16, thSelA, thSelB, protoSel uint8, seed uint64, wlSel, dirtyWlSel uint8, dirtyOps uint16, dirtyPanics, roundTrip, viaArena bool) {
		geoms := []int{1, 2, 4, 8}
		cfgA := commtm.Config{
			Threads:       geoms[int(thSelA)%4],
			Protocol:      commtm.Protocol(int(protoSel) % 2),
			DisableGather: protoSel%3 == 2,
			Seed:          seed,
		}
		cfgB := cfgA
		cfgB.Threads = geoms[int(thSelB)%4]

		// Fresh references at both geometries.
		fresh := commtm.New(cfgA)
		wantAStats, wantADigest := runWorkload(fresh, tiFuzzWorkload(wlSel, ops))
		fresh.Close()
		wantBStats, wantBDigest := wantAStats, wantADigest
		if cfgB != cfgA {
			fresh = commtm.New(cfgB)
			wantBStats, wantBDigest = runWorkload(fresh, tiFuzzWorkload(wlSel, ops))
			fresh.Close()
		}

		// Capture geometry: Setup on a pristine machine, split capture (base
		// and full overlay), then run the capturing cell itself — the capture
		// must not perturb the machine.
		mA := commtm.New(cfgA)
		w1 := tiFuzzWorkload(wlSel, ops)
		ti1, ok := w1.(snapshots.ThreadInvariant)
		if !ok || !ti1.SnapshotThreadInvariant() {
			t.Fatalf("fuzz workload %d is not thread-invariant", wlSel%3)
		}
		w1.Setup(mA)
		base := mA.SnapshotBase()
		host := ti1.SnapshotHost()
		mA.Run(w1.Body)
		gotStats, gotDigest := mA.Stats(), mA.MemDigest()
		mA.Close()
		if gotStats != wantAStats || gotDigest != wantADigest {
			t.Errorf("capture-path run diverges from plain run (cfg=%+v wl=%d ops=%d)\n fresh:   %+v %#x\n capture: %+v %#x",
				cfgA, wlSel%3, ops, wantAStats, wantADigest, gotStats, gotDigest)
		}

		// Adopt geometry: dirty the machine with another workload on another
		// seed, optionally dying mid-run — and in that case deliberately NOT
		// Reset, so RestoreBase must recover a panic-drained machine alone.
		mB := commtm.New(cfgB)
		defer mB.Close()
		mB.ResetSeed(seed ^ 0x5ca1ab1e)
		if dirtyPanics {
			dw := fuzzWorkload(dirtyWlSel, dirtyOps)
			dw.Setup(mB)
			func() {
				defer func() { recover() }()
				mB.Run(func(th *commtm.Thread) {
					if th.ID() == cfgB.Threads-1 {
						panic("fuzz: dirty run dies")
					}
					dw.Body(th)
				})
			}()
		} else {
			runWorkload(mB, fuzzWorkload(dirtyWlSel, dirtyOps))
		}

		adoptAndRun := func() {
			mB.RestoreBase(base, seed)
			w2 := tiFuzzWorkload(wlSel, ops)
			ti2 := w2.(snapshots.ThreadInvariant)
			ti2.AdoptBaseHost(mB, host)
			if roundTrip {
				// The adopted state must survive a full-key overlay round
				// trip: capture the overlay exactly as LoadSplit would, Reset,
				// Restore it, and adopt its host on a third instance.
				ov := mB.Snapshot()
				ovHost := ti2.SnapshotHost()
				mB.Reset()
				mB.Restore(ov)
				w2 = tiFuzzWorkload(wlSel, ops)
				ti2 = w2.(snapshots.ThreadInvariant)
				ti2.AdoptHost(mB, ovHost)
			}
			mB.Run(w2.Body)
			if err := w2.Validate(mB); err != nil {
				t.Errorf("adopted run failed validation (A=%+v B=%+v wl=%d ops=%d dirty=%d/%d panics=%v): %v",
					cfgA, cfgB, wlSel%3, ops, dirtyWlSel%6, dirtyOps, dirtyPanics, err)
				return
			}
			gs, gd := mB.Stats(), mB.MemDigest()
			if gs != wantBStats || gd != wantBDigest {
				t.Errorf("adopted run diverges from plain run (A=%+v B=%+v wl=%d ops=%d dirty=%d/%d panics=%v trip=%v)\n fresh: %+v %#x\n adopt: %+v %#x",
					cfgA, cfgB, wlSel%3, ops, dirtyWlSel%6, dirtyOps, dirtyPanics, roundTrip, wantBStats, wantBDigest, gs, gd)
			}
		}
		adoptAndRun()
		// Base images are immutable and reusable: adopt the same base again
		// on the now-dirty (post-run) machine.
		adoptAndRun()

		if !viaArena {
			return
		}

		// Arena scenario: the same sweep through a snapshots.Arena.
		ar := snapshots.New()
		runCell := func(cfg commtm.Config, wl harness.Workload) (commtm.Stats, uint64) {
			m := commtm.New(cfg)
			defer m.Close()
			ti := wl.(snapshots.ThreadInvariant)
			params, ok := ti.SnapshotParams()
			if !ok {
				t.Fatalf("thread-invariant workload %q opted out of snapshots", wl.Name())
			}
			kcfg := cfg // mirror the sweep's snapshotKey: seed and protocol erased
			kcfg.Seed = 0
			kcfg.Protocol = 0
			kcfg.DisableGather = false
			key := snapshots.Key{Workload: wl.Name(), Params: params, Seed: cfg.Seed, Config: kcfg}
			bkey := key
			bkey.Config.Threads = 0
			ent, hit := ar.LoadSplit(key, bkey,
				func() { wl.Setup(m) },
				func(be snapshots.BaseEntry) { m.RestoreBase(be.Img, cfg.Seed); ti.AdoptBaseHost(m, be.Host) },
				func() snapshots.BaseEntry { return snapshots.BaseEntry{Img: m.SnapshotBase(), Host: ti.SnapshotHost()} },
				func() snapshots.Entry { return snapshots.Entry{Img: m.Snapshot(), Host: ti.SnapshotHost()} },
			)
			if hit {
				m.Restore(ent.Img)
				ti.AdoptHost(m, ent.Host)
			}
			m.Run(wl.Body)
			if err := wl.Validate(m); err != nil {
				t.Errorf("arena cell failed validation (cfg=%+v wl=%s): %v", cfg, wl.Name(), err)
			}
			return m.Stats(), m.MemDigest()
		}
		// First cell captures wl's base and overlay at geometry A.
		runCell(cfgA, tiFuzzWorkload(wlSel, ops))
		// A different workload's capture lands in the arena in between.
		runCell(cfgA, tiFuzzWorkload(wlSel+1, dirtyOps))
		// The original workload at geometry B adopts the cached base (or, at
		// equal geometries, the cached full image) and must match fresh.
		before := ar.Stats()
		gs, gd := runCell(cfgB, tiFuzzWorkload(wlSel, ops))
		if gs != wantBStats || gd != wantBDigest {
			t.Errorf("arena-path run diverges from plain run (A=%+v B=%+v wl=%d ops=%d)\n fresh: %+v %#x\n arena: %+v %#x",
				cfgA, cfgB, wlSel%3, ops, wantBStats, wantBDigest, gs, gd)
		}
		if d := ar.Stats().Delta(before); d.Hits+d.BaseHits != 1 {
			t.Errorf("geometry-B cell took %d full and %d base hits, want exactly one (the arena never evicts)", d.Hits, d.BaseHits)
		}
	})
}

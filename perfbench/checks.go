package main

import (
	"time"

	"hyperprov/internal/db"
	"hyperprov/internal/subscribe"
)

// checkRound replays the acknowledged log on plain databases and
// compares every recorded answer with the replay at the point it was
// asked: reads against the live replay, abort what-ifs against the
// replay without the aborted transaction, deletion what-ifs against the
// replay from the initial database without the deleted tuple. At the
// end the engine's live database, and each subscription's ack+delta
// composition, are held to the same replays and to a fresh ack.
func checkRound(res *result, r *round, acked []int, reads []readRec, whatifs []whatifRec,
	frames []frameRec, fresh map[string][]keyedRow, live digest, lc *layerRound) {
	liveR := &replay{d: r.initial.Clone()}
	abortR := &replay{d: r.initial.Clone(), skip: r.abortLabel}
	var delR *replay
	if r.deleteAnnot != "" {
		d := r.initial.Clone()
		if err := d.Apply(db.Delete(r.deleteRel, db.ConstPattern(r.deleteTuple))); err != nil {
			res.problem("oracle: %v", err)
			return
		}
		delR = &replay{d: d}
	}
	ri, wi := 0, 0
	checkAt := func(pos int) {
		for ; ri < len(reads) && reads[ri].pos == pos; ri++ {
			rd := reads[ri]
			want := liveR.d.Instance(rd.rel).Contains(rd.tuple)
			if got := rd.found && rd.live; got != want {
				res.problem("read %s after %d transactions: live=%v, replay says %v", tupleKey(rd.rel, rd.tuple), pos, got, want)
			}
		}
		for ; wi < len(whatifs) && whatifs[wi].pos == pos; wi++ {
			w := whatifs[wi]
			src := abortR
			if w.kind == "deletion" {
				src = delR
			}
			if want := dbDigest(src.d).plus(r.outside); w.got != want {
				res.problem("%s what-if after %d transactions: answer %v, replay %v", w.kind, pos, w.got, want)
			}
		}
	}
	checkAt(0)
	for p, idx := range acked {
		t := &r.txns[idx]
		for _, rp := range []*replay{liveR, abortR, delR} {
			if rp == nil {
				continue
			}
			if err := rp.apply(t); err != nil {
				res.problem("oracle replay %s: %v", t.Label, err)
				return
			}
		}
		checkAt(p + 1)
	}
	if ri != len(reads) || wi != len(whatifs) {
		res.problem("%d reads and %d what-ifs were never checked", len(reads)-ri, len(whatifs)-wi)
	}
	if want := dbDigest(liveR.d).plus(r.outside); live != want {
		res.problem("live database %v, replay %v", live, want)
	}

	// Subscriptions: compose ack + deltas per subscription.
	states := composeFrames(res, frames)
	for _, sp := range r.specs() {
		st := states[sp.ID]
		fr, ok := fresh[sp.ID]
		if st == nil || !ok {
			res.problem("subscription %s: no ack", sp.ID)
			continue
		}
		if !sameState(st, fr) {
			res.problem("subscription %s: ack+deltas (%d rows) differ from a fresh ack (%d rows)", sp.ID, len(st), len(fr))
		}
		switch sp.Kind {
		case subscribe.KindAbort, subscribe.KindDeletion:
			src := abortR
			if sp.Kind == subscribe.KindDeletion {
				src = delR
			}
			var g digest
			for k := range st {
				g.add(k)
			}
			if want := dbDigest(src.d).plus(r.outside); g != want {
				res.problem("subscription %s: state %v, replay %v", sp.ID, g, want)
			}
		case subscribe.KindWatch:
			// The watch holds support rows (live and deleted) matching
			// the pattern; every live replay row matching it is among them.
			for _, w := range r.watches {
				if w.id != sp.ID {
					continue
				}
				liveR.d.Instance(w.rel).Each(func(t db.Tuple) {
					if matchWatch(w, t) {
						if _, ok := st[tupleKey(w.rel, t)]; !ok {
							res.problem("watch %s: live row %s missing", w.id, tupleKey(w.rel, t))
						}
					}
				})
			}
		}
	}
	if r.tr != nil {
		// The re-execution baseline of the paper's usage-versus-rerun
		// comparison: the whole log replayed without the aborted
		// transaction, on the whole initial database.
		full := &replay{d: r.full.Clone(), skip: r.abortLabel}
		t0 := time.Now()
		i := r.tr.start("db.rerun", -1, 0)
		for _, idx := range acked {
			if err := full.apply(&r.txns[idx]); err != nil {
				res.problem("rerun %s: %v", r.txns[idx].Label, err)
			}
		}
		r.tr.end(i)
		lc.rerun = time.Since(t0).Seconds()
	}
}

func matchWatch(w watchSpec, t db.Tuple) bool {
	for i, v := range w.match {
		if v != nil && t[i] != *v {
			return false
		}
	}
	return true
}

// composeFrames folds each subscription's frames into its state: row
// key → annotation (empty for what-if subscriptions).
func composeFrames(res *result, frames []frameRec) map[string]map[string]string {
	states := map[string]map[string]string{}
	for _, f := range frames {
		switch f.typ {
		case "ack", "resync":
			st := make(map[string]string, len(f.rows))
			for _, row := range f.rows {
				st[row.key] = row.annot
			}
			states[f.id] = st
		case "delta":
			st := states[f.id]
			if st == nil {
				res.problem("delta for %s before its ack", f.id)
				continue
			}
			for _, row := range f.removed {
				delete(st, row.key)
			}
			for _, row := range append(f.added, f.changed...) {
				st[row.key] = row.annot
			}
		case "error":
			res.problem("stream error frame: %s", f.errMsg)
		}
	}
	return states
}

func sameState(st map[string]string, rows []keyedRow) bool {
	if len(st) != len(rows) {
		return false
	}
	for _, row := range rows {
		if a, ok := st[row.key]; !ok || a != row.annot {
			return false
		}
	}
	return true
}

package engine

import (
	"hyperprov/internal/core"
	"hyperprov/internal/db"
	"hyperprov/internal/upstruct"
)

// Specialize evaluates every stored annotation in the given
// Update-Structure under the valuation env and streams the results to f
// (including tombstone rows, whose values typically evaluate to the
// structure's zero). Rows stream in deterministic order: relations in
// schema order, rows in insertion order — identical to EachRow and
// SpecializeParallel, and identical across both engine implementations
// — never map order. This is the generic "provenance usage" operation
// of Section 6: all applications below are thin wrappers over it, sound
// by Proposition 4.2. The MVCC horizon is pinned once on entry (the
// view's own horizon when e is a View), so the streamed rows form one
// consistent epoch snapshot, lock-free against concurrent writers.
func Specialize[T any](e Reader, s upstruct.Structure[T], env upstruct.Env[T], f func(rel string, t db.Tuple, v T)) {
	switch v := pinned(e).(type) {
	case *Engine:
		specializeAt(v, v.Horizon(), s, env, f)
	case *ShardedEngine:
		specializeShardedAt(v, v.Horizon(), s, env, f)
	case *engineView:
		specializeAt(v.e, v.s, s, env, f)
	case *shardedView:
		specializeShardedAt(v.se, v.s, s, env, f)
	default:
		// Generic fallback over materialized annotations.
		e.Rows(func(rel string, t db.Tuple, ann *core.Expr) {
			f(rel, t, upstruct.Eval(ann, s, env))
		})
	}
}

// evalVersion evaluates one resolved version in the structure.
func evalVersion[T any](mode Mode, ver *version, s upstruct.Structure[T], env upstruct.Env[T]) T {
	if mode == ModeNaive {
		return upstruct.Eval(ver.expr, s, env)
	}
	return upstruct.EvalNF(ver.nf, s, env)
}

// specializeAt is the lock-free core of Specialize at one pinned
// horizon.
func specializeAt[T any](e *Engine, at uint64, s upstruct.Structure[T], env upstruct.Env[T], f func(rel string, t db.Tuple, v T)) {
	for _, rel := range e.schema.Names() {
		tbl := e.tables[rel]
		for _, r := range tbl.list.snapshot() {
			if r.seq > at {
				break // plain-engine lists are sequence-ordered
			}
			ver := r.at(at)
			if ver == nil {
				continue
			}
			f(rel, r.tuple, evalVersion(e.mode, ver, s, env))
		}
	}
}

// specializeShardedAt is the sharded core of Specialize: rows merge to
// global insertion order at the pinned horizon before evaluation, so
// the stream is identical to the single engine's.
func specializeShardedAt[T any](se *ShardedEngine, at uint64, s upstruct.Structure[T], env upstruct.Env[T], f func(rel string, t db.Tuple, v T)) {
	for _, rel := range se.schema.Names() {
		for _, r := range se.mergedRowsAt(rel, at) {
			ver := r.at(at)
			if ver == nil {
				continue
			}
			f(rel, r.tuple, evalVersion(se.mode, ver, s, env))
		}
	}
}

// BoolRestrict materializes the database selected by a Boolean
// valuation: the result contains exactly the tuples whose provenance
// evaluates to true.
func BoolRestrict(e Reader, env upstruct.Env[bool]) *db.Database {
	out := db.NewDatabase(e.Schema())
	Specialize[bool](e, upstruct.Bool, env, func(rel string, t db.Tuple, v bool) {
		if v {
			// Tuples stored by the engine conform by construction.
			_ = out.InsertTuple(rel, t)
		}
	})
	return out
}

// LiveDB returns the database under the all-true valuation — the set
// semantics of the transactions actually executed. It must equal the
// result of the plain engine on the same input (the package tests use
// this as the ground-truth oracle).
func LiveDB(e Reader) *db.Database {
	return BoolRestrict(e, func(core.Annot) bool { return true })
}

// DeletionPropagation answers the Section 4.1 what-if question "what
// would the result be had these input tuples not been in the database?"
// by assigning false to the given tuple annotations and true elsewhere —
// without re-running the transactions.
func DeletionPropagation(e Reader, deleted ...core.Annot) *db.Database {
	dead := make(map[core.Annot]bool, len(deleted))
	for _, a := range deleted {
		dead[a] = false
	}
	return BoolRestrict(e, upstruct.MapEnv(dead, true))
}

// AbortTransactions answers "what would the result be had these
// transactions been aborted?" by assigning false to the given
// transaction labels.
func AbortTransactions(e Reader, labels ...string) *db.Database {
	dead := make(map[core.Annot]bool, len(labels))
	for _, l := range labels {
		dead[core.QueryAnnot(l)] = false
	}
	return BoolRestrict(e, upstruct.MapEnv(dead, true))
}

// AccessControl evaluates the access-control semantics of Section 4.1:
// env assigns each tuple and transaction annotation its set of
// credentials (e.g. country names), and the result maps every visible
// tuple to the credentials that may see it. Tuples whose credential set
// comes out empty are omitted.
func AccessControl(e Reader, env upstruct.Env[upstruct.Set]) map[string]map[string]upstruct.Set {
	out := make(map[string]map[string]upstruct.Set)
	Specialize[upstruct.Set](e, upstruct.Sets, env, func(rel string, t db.Tuple, v upstruct.Set) {
		if v.Len() == 0 {
			return
		}
		m := out[rel]
		if m == nil {
			m = make(map[string]upstruct.Set)
			out[rel] = m
		}
		// The one remaining Key() construction in the engine: the API's
		// result shape is keyed by the durable string encoding. Every
		// lookup path (table probes, routing, Annotation/NF) runs on
		// fingerprints and never rebuilds keys.
		m[t.Key()] = v
	})
	return out
}

// Certify evaluates the certification semantics of Section 4.1 with
// minimal trust level l: env assigns raw trust scores to annotations,
// and the result is the database of tuples certified at that level.
func Certify(e Reader, l float64, env upstruct.Env[upstruct.Trust]) *db.Database {
	st := upstruct.TrustStructure{L: l}
	out := db.NewDatabase(e.Schema())
	Specialize[upstruct.Trust](e, st, env, func(rel string, t db.Tuple, v upstruct.Trust) {
		if st.Trusted(v) {
			_ = out.InsertTuple(rel, t)
		}
	})
	return out
}

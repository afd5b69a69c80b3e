package engine

import (
	"testing"

	"hyperprov/internal/db"
)

// wrappedDB is a DB that is neither an engine nor one of its views, as
// wal.Store and wal.Follower are.
type wrappedDB struct{ DB }

// TestReaderChunksPinsWrappers: a wrapping DB chunks through the view
// it pins at its newest horizon instead of falling back to the
// sequential pass, so the workers count reaches it.
func TestReaderChunksPinsWrappers(t *testing.T) {
	initial := db.NewDatabase(seqTestSchema(t))
	for i := int64(0); i < 8; i++ {
		if err := initial.InsertTuple("R", db.Tuple{db.I(i), db.I(0)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, shards := range []int{1, 2} {
		e := Open(ModeNormalForm, initial, WithShards(shards))
		chunks, _, ok := readerChunks(wrappedDB{e}, 4)
		if !ok || len(chunks) != 4 {
			t.Fatalf("shards=%d: wrapped DB resolved to %d chunks (ok=%v), want 4 parallel chunks", shards, len(chunks), ok)
		}
		if chunks[0].at != e.Horizon() {
			t.Fatalf("shards=%d: chunks pinned at %#x, want the horizon %#x", shards, chunks[0].at, e.Horizon())
		}
		putChunkBuf(chunks)
	}
}

package store

import (
	"errors"
	"time"
)

// ErrNoSnapshot reports a LoadSnapshot miss.
var ErrNoSnapshot = errors.New("store: no such snapshot")

// Stats is a point-in-time store summary, surfaced by /healthz.
type Stats struct {
	// Backend names the implementation ("file", "memory", "faulty").
	Backend string `json:"backend"`
	// Records is the number of intact journal records.
	Records uint64 `json:"journal_records"`
	// JournalBytes is the journal size in bytes.
	JournalBytes int64 `json:"journal_bytes"`
	// Snapshots counts stored snapshot blobs; SnapshotBytes their total
	// size.
	Snapshots     int   `json:"snapshots"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// LastAppend is when the journal last grew (zero before any append
	// this process).
	LastAppend time.Time `json:"last_append,omitempty"`
	// TornTailRecovered reports that opening the store found — and
	// truncated — a torn or corrupt journal tail (a crash mid-append).
	TornTailRecovered bool `json:"torn_tail_recovered,omitempty"`
}

// Store is the pluggable persistence backend: an append-only journal of
// accepted mutations plus keyed snapshot blobs. Append must be durable
// before it returns (for backends with a durability story); Replay streams
// the journal in append order. All methods are safe for concurrent use.
type Store interface {
	// Append durably journals one record, assigning Record.Seq.
	Append(rec *Record) error
	// Replay streams every intact journal record in order. An error from
	// fn aborts the replay and is returned.
	Replay(fn func(*Record) error) error
	// SaveSnapshot stores (or replaces) an opaque blob under (kind, id).
	SaveSnapshot(kind, id string, data []byte) error
	// LoadSnapshot returns the blob under (kind, id), or ErrNoSnapshot.
	LoadSnapshot(kind, id string) ([]byte, error)
	// DeleteSnapshot removes the blob under (kind, id); removing an
	// absent snapshot is a no-op.
	DeleteSnapshot(kind, id string) error
	// Stats summarises the store.
	Stats() Stats
	// Close releases the backend. A closed store rejects writes.
	Close() error
}

package mqtt

// SessionStore is the broker's durable session state: retained messages,
// persistent subscriptions, and the QoS 1 in-flight map, journaled to a
// write-ahead log so a restarted broker recovers them and redelivers
// unacked QoS 1 publishes with the DUP flag set.
//
// The store is a write-through mirror: the broker keeps serving from its
// own in-memory structures (retained map, per-session sub maps) and calls
// the store on every state transition; on restart the mirror reseeds
// those structures. All methods are safe for concurrent use; appends
// happen under the store lock, so journal order equals application order.
// Checkpoints compact the journal every CheckpointEvery records. The
// recovery contract is written out in docs/DURABILITY.md.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/vclock"
	"repro/internal/wal"
)

// SessionStoreOptions tunes OpenSessionStore; the zero value is usable.
type SessionStoreOptions struct {
	// Clock feeds the WAL's recovery-duration metric.
	Clock vclock.Clock
	// Metrics shares WAL counters with the rest of the deployment.
	Metrics *wal.Metrics
	// CheckpointEvery compacts the journal after this many records
	// (default 4096; set by tests to force early checkpoints).
	CheckpointEvery int
}

// SessionStore journals broker session state. See the package note above.
type SessionStore struct {
	log             *wal.Log
	checkpointEvery int

	mu       sync.Mutex
	retained map[string]Message
	sessions map[string]*clientState
	ops      int // records since the last checkpoint
}

// clientState is the durable state of one client id.
type clientState struct {
	Subs     map[string]byte   `json:"subs,omitempty"`
	Inflight map[uint16][]byte `json:"inflight,omitempty"` // pid -> raw PUBLISH frame
	MaxPID   uint16            `json:"max_pid,omitempty"`
}

// stateSnapshot is the checkpoint shape.
type stateSnapshot struct {
	Retained []retainedEntry         `json:"retained,omitempty"`
	Sessions map[string]*clientState `json:"sessions,omitempty"`
}

type retainedEntry struct {
	Topic   string `json:"t"`
	Payload []byte `json:"p,omitempty"`
	QoS     byte   `json:"q,omitempty"`
}

// stateRecord is one journaled transition.
type stateRecord struct {
	Op     string `json:"op"`
	Client string `json:"cl,omitempty"`
	Topic  string `json:"t,omitempty"`
	Filter string `json:"f,omitempty"`
	QoS    byte   `json:"q,omitempty"`
	PID    uint16 `json:"pid,omitempty"`
	Data   []byte `json:"d,omitempty"`
}

const (
	stRetain   = "retain"
	stUnretain = "unretain"
	stSub      = "sub"
	stUnsub    = "unsub"
	stInflight = "inflight"
	stAck      = "ack"
)

// OpenSessionStore recovers (or creates) a session store in dir.
func OpenSessionStore(dir string, opts SessionStoreOptions) (*SessionStore, error) {
	l, rec, err := wal.Open(dir, wal.Options{
		Clock:   opts.Clock,
		Metrics: opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	every := opts.CheckpointEvery
	if every <= 0 {
		every = 4096
	}
	s := &SessionStore{
		checkpointEvery: every,
		retained:        make(map[string]Message),
		sessions:        make(map[string]*clientState),
	}
	if rec.Snapshot != nil {
		var snap stateSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			_ = l.Close()
			return nil, fmt.Errorf("mqtt: session store %s: snapshot: %w", dir, err)
		}
		for _, r := range snap.Retained {
			s.retained[r.Topic] = Message{Topic: r.Topic, Payload: r.Payload, QoS: r.QoS, Retain: true}
		}
		for id, cs := range snap.Sessions {
			if cs.Subs == nil {
				cs.Subs = make(map[string]byte)
			}
			if cs.Inflight == nil {
				cs.Inflight = make(map[uint16][]byte)
			}
			s.sessions[id] = cs
		}
	}
	for i, raw := range rec.Records {
		if err := s.applyRecord(raw); err != nil {
			_ = l.Close()
			return nil, fmt.Errorf("mqtt: session store %s: replay record %d: %w",
				dir, int(rec.SnapshotLSN)+i+1, err)
		}
	}
	s.log = l
	return s, nil
}

// applyRecord replays one journaled transition onto the mirror. The log is
// not attached during replay, so nothing is re-journaled.
func (s *SessionStore) applyRecord(raw []byte) error {
	var r stateRecord
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	switch r.Op {
	case stRetain:
		s.retained[r.Topic] = Message{Topic: r.Topic, Payload: r.Data, QoS: r.QoS, Retain: true}
	case stUnretain:
		delete(s.retained, r.Topic)
	case stSub:
		s.client(r.Client).Subs[r.Filter] = r.QoS
	case stUnsub:
		if cs, ok := s.sessions[r.Client]; ok {
			delete(cs.Subs, r.Filter)
		}
	case stInflight:
		cs := s.client(r.Client)
		cs.Inflight[r.PID] = r.Data
		cs.MaxPID = r.PID
	case stAck:
		if cs, ok := s.sessions[r.Client]; ok {
			delete(cs.Inflight, r.PID)
		}
	default:
		return fmt.Errorf("unknown op %q", r.Op)
	}
	return nil
}

// client returns (creating if needed) the state for a client id. Caller
// holds s.mu (or is single-threaded replay).
func (s *SessionStore) client(id string) *clientState {
	cs, ok := s.sessions[id]
	if !ok {
		cs = &clientState{Subs: make(map[string]byte), Inflight: make(map[uint16][]byte)}
		s.sessions[id] = cs
	}
	return cs
}

// append journals one transition and auto-checkpoints on cadence. Caller
// holds s.mu.
func (s *SessionStore) append(r stateRecord) {
	buf, err := json.Marshal(r)
	if err != nil {
		return // unreachable: stateRecord fields are always marshalable
	}
	if err := s.log.Append(buf); err != nil {
		return // closed or sticky write error; mirror stays authoritative
	}
	s.ops++
	if s.ops >= s.checkpointEvery {
		s.ops = 0
		_ = s.checkpointLocked()
	}
}

// Retain records (or replaces) a retained message.
func (s *SessionStore) Retain(m Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retained[m.Topic] = m
	s.append(stateRecord{Op: stRetain, Topic: m.Topic, Data: m.Payload, QoS: m.QoS})
}

// Unretain clears a retained topic.
func (s *SessionStore) Unretain(topic string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.retained[topic]; !ok {
		return
	}
	delete(s.retained, topic)
	s.append(stateRecord{Op: stUnretain, Topic: topic})
}

// AddSub records a client subscription (idempotent per filter+qos).
func (s *SessionStore) AddSub(client, filter string, qos byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.client(client)
	if q, ok := cs.Subs[filter]; ok && q == qos {
		return
	}
	cs.Subs[filter] = qos
	s.append(stateRecord{Op: stSub, Client: client, Filter: filter, QoS: qos})
}

// RemoveSub records a client unsubscription.
func (s *SessionStore) RemoveSub(client, filter string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.sessions[client]
	if !ok {
		return
	}
	if _, ok := cs.Subs[filter]; !ok {
		return
	}
	delete(cs.Subs, filter)
	s.append(stateRecord{Op: stUnsub, Client: client, Filter: filter})
}

// RecordInflight records a QoS 1 PUBLISH frame written to a client but not
// yet acknowledged. frame is copied; the caller may reuse its buffer.
func (s *SessionStore) RecordInflight(client string, pid uint16, frame []byte) {
	cp := make([]byte, len(frame))
	copy(cp, frame)
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.client(client)
	cs.Inflight[pid] = cp
	cs.MaxPID = pid
	s.append(stateRecord{Op: stInflight, Client: client, PID: pid, Data: cp})
}

// Ack clears an in-flight record on PUBACK.
func (s *SessionStore) Ack(client string, pid uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.sessions[client]
	if !ok {
		return
	}
	if _, ok := cs.Inflight[pid]; !ok {
		return
	}
	delete(cs.Inflight, pid)
	s.append(stateRecord{Op: stAck, Client: client, PID: pid})
}

// RetainedMessages returns the retained set sorted by topic.
func (s *SessionStore) RetainedMessages() []Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Message, 0, len(s.retained))
	for _, m := range s.retained {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Topic < out[j].Topic })
	return out
}

// Subs returns a copy of a client's persistent subscriptions.
func (s *SessionStore) Subs(client string) map[string]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.sessions[client]
	if !ok || len(cs.Subs) == 0 {
		return nil
	}
	out := make(map[string]byte, len(cs.Subs))
	for f, q := range cs.Subs {
		out[f] = q
	}
	return out
}

// InflightFrame is one unacked QoS 1 delivery.
type InflightFrame struct {
	PID   uint16
	Frame []byte
}

// InflightFrames returns copies of a client's unacked QoS 1 frames in
// packet-id order (deterministic redelivery order).
func (s *SessionStore) InflightFrames(client string) []InflightFrame {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.sessions[client]
	if !ok || len(cs.Inflight) == 0 {
		return nil
	}
	out := make([]InflightFrame, 0, len(cs.Inflight))
	for pid, f := range cs.Inflight {
		cp := make([]byte, len(f))
		copy(cp, f)
		out = append(out, InflightFrame{PID: pid, Frame: cp})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// MaxPID returns the highest packet id ever assigned to the client, so a
// reconnected session continues numbering past recovered in-flight ids.
func (s *SessionStore) MaxPID(client string) uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs, ok := s.sessions[client]; ok {
		return cs.MaxPID
	}
	return 0
}

// InflightCount returns the total number of unacked QoS 1 deliveries
// across all clients. The chaos harness drains this to zero before
// injecting a crash so redelivery cannot duplicate already-acked probes.
func (s *SessionStore) InflightCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, cs := range s.sessions {
		n += len(cs.Inflight)
	}
	return n
}

// writeSnapshot serializes the mirror. Caller holds s.mu.
func (s *SessionStore) writeSnapshot(w io.Writer) error {
	snap := stateSnapshot{Sessions: s.sessions}
	topics := make([]string, 0, len(s.retained))
	for t := range s.retained {
		topics = append(topics, t)
	}
	sort.Strings(topics)
	for _, t := range topics {
		m := s.retained[t]
		snap.Retained = append(snap.Retained, retainedEntry{Topic: t, Payload: m.Payload, QoS: m.QoS})
	}
	buf, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// checkpointLocked compacts the journal. Caller holds s.mu, which also
// satisfies the WAL's no-concurrent-Append checkpoint contract.
func (s *SessionStore) checkpointLocked() error {
	return s.log.Checkpoint(s.writeSnapshot)
}

// Checkpoint writes a compacting snapshot now.
func (s *SessionStore) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

// Sync blocks until every journaled transition is fsynced.
func (s *SessionStore) Sync() error { return s.log.Sync() }

// Close flushes and closes the journal.
func (s *SessionStore) Close() error { return s.log.Close() }

// Crash abandons un-flushed journal appends and closes abruptly,
// simulating process death; on-disk state is whatever group commit had
// already persisted.
func (s *SessionStore) Crash() { s.log.Crash() }

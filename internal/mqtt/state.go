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
// Checkpoints compact the journal every checkpointEvery records.
//
// The journal and the snapshot are one stream of ops in the document
// store's framing (internal/wal), read back by one function, apply:
//
//	ops  := formatVersion { op }
//	op   := kind text(client) text(topic|filter) uvarint(qos|pid) text(data)
//	text := uvarint(len) bytes
//
//	kind          client  topic|filter  qos|pid  data
//	'r' retain    ""      topic         qos      payload
//	'u' unretain  ""      topic         0        ""
//	's' sub       client  filter        qos      ""
//	'x' unsub     client  filter        0        ""
//	'i' inflight  client  ""            pid      PUBLISH frame (sets MaxPID)
//	'a' ack       client  ""            pid      ""
//	'm' maxpid    client  ""            pid      ""
//
// A journal record is one op. A snapshot writes the retained set in topic
// order, then each client in id order: its subscriptions by filter, its
// in-flight frames by packet id and, when the last of those is not its
// MaxPID (as for a client with nothing in flight), an 'm'. Recovery
// applies the newest snapshot, then the journal tail. The recovery
// contract is written out in docs/DURABILITY.md.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"

	"repro/internal/wal"
)

// checkpointEvery is how many records a SessionStore journals between
// compacting checkpoints.
const checkpointEvery = 4096

// formatVersion is the first byte of every journal record and snapshot
// (wal.CheckVersion); version 1 was JSON.
const formatVersion = 2

const (
	opRetain   = 'r'
	opUnretain = 'u'
	opSub      = 's'
	opUnsub    = 'x'
	opInflight = 'i'
	opAck      = 'a'
	opMaxPID   = 'm'
)

// SessionStore journals broker session state. See the package note above.
type SessionStore struct {
	log *wal.Log
	// checkpointEvery starts at the constant; tests in this package lower
	// it to force early checkpoints.
	checkpointEvery int

	mu       sync.Mutex
	retained map[string]Message
	sessions map[string]*clientState
	ops      int    // records since the last checkpoint
	rec      []byte // the record being journaled; Append copies it
}

// clientState is the durable state of one client id.
type clientState struct {
	subs     map[string]byte
	inflight map[uint16][]byte // pid -> raw PUBLISH frame
	maxPID   uint16
}

// OpenSessionStore recovers (or creates) a session store in dir. opts is
// the journal's (its clock and metrics).
func OpenSessionStore(dir string, opts wal.Options) (*SessionStore, error) {
	l, rec, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	s := newSessionStore()
	if err := rec.Replay(s.apply); err != nil {
		_ = l.Close()
		return nil, fmt.Errorf("mqtt: session store %s: %w", dir, err)
	}
	// The log is attached only after replay, so nothing is re-journaled.
	s.log = l
	return s, nil
}

func newSessionStore() *SessionStore {
	return &SessionStore{
		checkpointEvery: checkpointEvery,
		retained:        make(map[string]Message),
		sessions:        make(map[string]*clientState),
	}
}

// apply replays a journal record or a snapshot onto a store whose log is
// not attached, and fails, never panics, on bytes that do not parse.
// Payloads and frames are copied out of b.
func (s *SessionStore) apply(b []byte) error {
	b, err := wal.CheckVersion(b, formatVersion)
	if err != nil {
		return err
	}
	r := wal.NewRecordReader(b)
	for r.Len() > 0 && !r.Bad() {
		op := r.Take(1)[0]
		client, topic := r.Text(), r.Text()
		n := r.Uvarint()
		data := r.Take(r.Uvarint())
		switch {
		case r.Bad():
		case op == opRetain && n <= 2:
			s.retained[topic] = Message{Topic: topic, Payload: slices.Clone(data), QoS: byte(n), Retain: true}
		case op == opUnretain:
			delete(s.retained, topic)
		case op == opSub && n <= 2:
			s.client(client).subs[topic] = byte(n)
		case op == opUnsub:
			if cs, ok := s.sessions[client]; ok {
				delete(cs.subs, topic)
			}
		case op == opInflight && n <= 0xFFFF:
			cs := s.client(client)
			cs.inflight[uint16(n)] = slices.Clone(data)
			cs.maxPID = uint16(n)
		case op == opAck && n <= 0xFFFF:
			if cs, ok := s.sessions[client]; ok {
				delete(cs.inflight, uint16(n))
			}
		case op == opMaxPID && n <= 0xFFFF:
			s.client(client).maxPID = uint16(n)
		default:
			r.Fail()
		}
	}
	if r.Bad() {
		return errors.New("corrupt ops")
	}
	return nil
}

// appendOp appends one op.
func appendOp(b []byte, op byte, client, topic string, n uint64, data []byte) []byte {
	b = binary.AppendUvarint(wal.AppendText(wal.AppendText(append(b, op), client), topic), n)
	return append(binary.AppendUvarint(b, uint64(len(data))), data...)
}

// client returns (creating if needed) the state for a client id. Caller
// holds s.mu (or is single-threaded replay).
func (s *SessionStore) client(id string) *clientState {
	cs, ok := s.sessions[id]
	if !ok {
		cs = &clientState{subs: make(map[string]byte), inflight: make(map[uint16][]byte)}
		s.sessions[id] = cs
	}
	return cs
}

// journal appends one op as a record and checkpoints on cadence. Caller
// holds s.mu.
func (s *SessionStore) journal(op byte, client, topic string, n uint64, data []byte) {
	s.rec = appendOp(append(s.rec[:0], formatVersion), op, client, topic, n, data)
	if err := s.log.Append(s.rec); err != nil {
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
	s.journal(opRetain, "", m.Topic, uint64(m.QoS), m.Payload)
}

// Unretain clears a retained topic.
func (s *SessionStore) Unretain(topic string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.retained[topic]; ok {
		delete(s.retained, topic)
		s.journal(opUnretain, "", topic, 0, nil)
	}
}

// AddSub records a client subscription (idempotent per filter+qos).
func (s *SessionStore) AddSub(client, filter string, qos byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.client(client)
	if q, ok := cs.subs[filter]; ok && q == qos {
		return
	}
	cs.subs[filter] = qos
	s.journal(opSub, client, filter, uint64(qos), nil)
}

// RemoveSub records a client unsubscription.
func (s *SessionStore) RemoveSub(client, filter string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs, ok := s.sessions[client]; ok {
		if _, ok := cs.subs[filter]; ok {
			delete(cs.subs, filter)
			s.journal(opUnsub, client, filter, 0, nil)
		}
	}
}

// RecordInflight records a QoS 1 PUBLISH frame written to a client but not
// yet acknowledged. frame is copied; the caller may reuse its buffer.
func (s *SessionStore) RecordInflight(client string, pid uint16, frame []byte) {
	cp := slices.Clone(frame)
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.client(client)
	cs.inflight[pid] = cp
	cs.maxPID = pid
	s.journal(opInflight, client, "", uint64(pid), cp)
}

// Ack clears an in-flight record on PUBACK.
func (s *SessionStore) Ack(client string, pid uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs, ok := s.sessions[client]; ok {
		if _, ok := cs.inflight[pid]; ok {
			delete(cs.inflight, pid)
			s.journal(opAck, client, "", uint64(pid), nil)
		}
	}
}

// RetainedMessages returns the retained set sorted by topic.
func (s *SessionStore) RetainedMessages() []Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Message, 0, len(s.retained))
	for _, t := range sortedKeys(s.retained) {
		out = append(out, s.retained[t])
	}
	return out
}

// Subs returns a copy of a client's persistent subscriptions.
func (s *SessionStore) Subs(client string) map[string]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.sessions[client]
	if !ok || len(cs.subs) == 0 {
		return nil
	}
	return maps.Clone(cs.subs)
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
	if !ok || len(cs.inflight) == 0 {
		return nil
	}
	out := make([]InflightFrame, 0, len(cs.inflight))
	for _, pid := range sortedKeys(cs.inflight) {
		out = append(out, InflightFrame{PID: pid, Frame: slices.Clone(cs.inflight[pid])})
	}
	return out
}

// MaxPID returns the highest packet id ever assigned to the client, so a
// reconnected session continues numbering past recovered in-flight ids.
func (s *SessionStore) MaxPID(client string) uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs, ok := s.sessions[client]; ok {
		return cs.maxPID
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
		n += len(cs.inflight)
	}
	return n
}

// writeSnapshot writes the mirror as ops (see the package note). Caller
// holds s.mu.
func (s *SessionStore) writeSnapshot(w io.Writer) error {
	b := append(make([]byte, 0, 64<<10), formatVersion)
	for _, t := range sortedKeys(s.retained) {
		m := s.retained[t]
		b = appendOp(b, opRetain, "", t, uint64(m.QoS), m.Payload)
	}
	for _, id := range sortedKeys(s.sessions) {
		if cap(b)-len(b) < 4<<10 { // double, not append's quarter steps
			b = slices.Grow(b, len(b))
		}
		cs := s.sessions[id]
		for _, f := range sortedKeys(cs.subs) {
			b = appendOp(b, opSub, id, f, uint64(cs.subs[f]), nil)
		}
		last := uint16(0)
		for _, pid := range sortedKeys(cs.inflight) {
			b = appendOp(b, opInflight, id, "", uint64(pid), cs.inflight[pid])
			last = pid
		}
		if cs.maxPID != last {
			b = appendOp(b, opMaxPID, id, "", uint64(cs.maxPID), nil)
		}
	}
	_, err := w.Write(b)
	return err
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
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

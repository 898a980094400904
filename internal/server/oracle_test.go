package server

import (
	"repro/internal/registry"
	"repro/internal/wire"
)

// This file keeps the per-message request loop the server ran before
// wakeup walked runs in place: a reader hands out one decoded
// wire.Request at a time, and each is pushed onto the batch or served.
// FuzzServeWakeup holds wakeup to it byte for byte.

// push queues one decoded bid op, copying the wire.Request into the
// pending batch.
func (b *batcher) push(q *wire.Request) {
	var kind registry.BatchKind
	switch q.Op {
	case wire.OpAdd:
		kind = registry.BatchAdd
	case wire.OpRebid:
		kind = registry.BatchRebid
	case wire.OpLeave:
		kind = registry.BatchLeave
	}
	b.ops = append(b.ops, registry.BatchOp{Kind: kind, ID: agentID(q.ID), T: q.T})
	b.req = append(b.req, q.Req)
}

// messages hands out a Reader's requests one at a time, as the
// Reader's NextRequest did, and reports in runs whether any frame so
// far held more than one message, as its Runs did.
type messages struct {
	rd   *wire.Reader
	run  []byte // the unread rest of the current run
	runs bool
}

// next decodes the next request into q; false with a nil error means
// the window holds no further whole frame.
func (m *messages) next(q *wire.Request) (bool, error) {
	if len(m.run) == 0 {
		run, err := m.rd.NextRun()
		if len(run) == 0 {
			return false, err
		}
		m.run = run
	}
	p, n, err := wire.DecodeRequest(m.run)
	if err != nil {
		return false, err
	}
	if n < len(m.run) {
		m.runs = true
	}
	*q, m.run = p, m.run[n:]
	return true, nil
}

// oracleWakeup is one wakeup of the per-message loop: the body of the
// former handle between its Fill and its Write, reading through m
// (which wraps ss.rd).
func (s *Server) oracleWakeup(ss *session, m *messages, wbuf []byte) ([]byte, error) {
	reg, met := s.cfg.Registry, s.cfg.Metrics
	bt, fr := &ss.bt, &ss.fr
	var q wire.Request
	if ss.subscribed {
		if g := s.sealGen.Load(); g != ss.seenSeal {
			ss.seenSeal = g
			wbuf = appendEpoch(fr, wbuf, wire.OpSealNotify, 0, reg.Snapshot())
			met.Served(wire.OpSealNotify, 1)
		}
	}
	decoded := 0
	for {
		ok, err := m.next(&q)
		if err != nil {
			return wbuf, err
		}
		if !ok {
			break
		}
		fr.Runs = m.runs
		if q.Op != wire.OpAckRuns {
			decoded++
		}
		if decoded > s.cfg.MaxInflight {
			wbuf = bt.drain(reg, met, fr, wbuf)
			wbuf = appendStatus(fr, wbuf, q.Op, q.Req, wire.StatusOverloaded)
			met.Overloaded()
			continue
		}
		switch q.Op {
		case wire.OpAdd, wire.OpRebid, wire.OpLeave:
			bt.push(&q)
			if len(bt.ops) >= s.cfg.MaxBatch {
				wbuf = bt.drain(reg, met, fr, wbuf)
			}
		default:
			wbuf = bt.drain(reg, met, fr, wbuf)
			wbuf = s.serve(q, fr, wbuf, ss)
			met.Served(q.Op, 1)
		}
	}
	wbuf = fr.Close(bt.drain(reg, met, fr, wbuf))
	met.Wakeup(decoded)
	return wbuf, nil
}

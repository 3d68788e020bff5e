package serve

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"dtt/internal/core"
	"dtt/internal/telemetry"
)

// Options configures a Server. It has no fields: a session's outbox holds
// one pending value per subscribed word and needs no bound.
type Options struct{}

// Counters is a point-in-time snapshot of the serving plane's activity,
// summed over live sessions plus everything retired sessions accumulated.
type Counters struct {
	// FramesIn/FramesOut and BytesIn/BytesOut count wire traffic,
	// headers included.
	FramesIn, FramesOut int64
	BytesIn, BytesOut   int64
	// Batches counts TSTORE_BATCH requests, Stores the words they
	// carried, Changed the non-silent stores among them.
	Batches, Stores, Changed int64
	// Updates counts operands folded by TUPDATE requests; their triggers
	// fire at merge time, so they have no Changed analogue here.
	Updates int64
	// Notifies counts notification words queued for the wire — a word
	// overwritten while pending counts once — and NotifyDropped the words
	// a closing session could not deliver: a ranged CHANGE_NOTIFY frame
	// carrying n words counts n (frames are in FramesOut).
	Notifies, NotifyDropped int64
	// Errors counts ERROR replies (semantic request failures).
	Errors int64
	// Sessions is the live session count; SessionsTotal counts every
	// session ever accepted.
	Sessions, SessionsTotal int64
}

// Server is the network trigger plane over one runtime. Accepted
// connections become sessions; each gets a private core.Namespace, a
// mailbox, and a reader/writer goroutine pair. Lock order: Server.mu is a
// leaf taken only on the accept/retire path and never together with any
// runtime lock the caller holds.
type Server struct {
	rt *core.Runtime

	mu sync.Mutex
	ln net.Listener //dtt:guards mu
	// sessions holds the live sessions by id; ids count up from 1 (seq is
	// the last one issued) and are never reused.
	sessions map[int]*session //dtt:guards mu
	seq      int              //dtt:guards mu
	closed   bool             //dtt:guards mu

	serveErr  atomic.Pointer[error]
	wg        sync.WaitGroup
	notifyLat *telemetry.Histogram

	metricsSrv *http.Server

	// retired accumulates the counters of sessions that have ended.
	retired Counters
}

// NewServer returns a server over rt. Call Serve or Start to accept
// connections and Close to shut the plane down; the runtime is the
// caller's and is not closed with the server.
func NewServer(rt *core.Runtime, _ Options) *Server {
	return &Server{
		rt:        rt,
		sessions:  make(map[int]*session),
		notifyLat: telemetry.NewHistogram(telemetry.LatencyBounds),
	}
}

// Serve accepts connections on ln until Close (returning nil) or until
// Accept fails for another reason (returning that error). The listener is
// owned by the server from this call on.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("serve: Serve on closed server")
	}
	if s.ln != nil {
		s.mu.Unlock()
		return errors.New("serve: Serve called twice")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !s.startSession(conn) {
			conn.Close()
			return nil
		}
	}
}

// Start listens on addr ("host:0" for an ephemeral port) and serves in
// the background, returning the bound address. An Accept failure after
// Start is captured and surfaced by Close.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.Serve(ln); err != nil {
			s.serveErr.Store(&err)
		}
	}()
	return ln.Addr().String(), nil
}

// startSession registers a new session and spawns its goroutine pair.
func (s *Server) startSession(conn net.Conn) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.seq++
	sess := &session{
		srv:  s,
		id:   s.seq,
		conn: conn,
		ns:   s.rt.NewNamespace(fmt.Sprintf("s%d", s.seq)),
		out:  newOutbox(),
		fr:   newFrameReader(conn),
	}
	s.sessions[sess.id] = sess
	s.retired.SessionsTotal++
	s.mu.Unlock()
	s.wg.Add(2)
	go sess.writeLoop()
	go func() {
		defer s.wg.Done()
		sess.run()
	}()
	return true
}

// removeSession retires a finished session: its counters fold into the
// aggregate.
func (s *Server) removeSession(sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, live := s.sessions[sess.id]; !live {
		return
	}
	delete(s.sessions, sess.id)
	addCounters(&s.retired, sess)
}

func addCounters(c *Counters, sess *session) {
	c.FramesIn += sess.framesIn.Load()
	c.FramesOut += sess.framesOut.Load()
	c.BytesIn += sess.bytesIn.Load()
	c.BytesOut += sess.bytesOut.Load()
	c.Batches += sess.batches.Load()
	c.Stores += sess.stores.Load()
	c.Changed += sess.changed.Load()
	c.Updates += sess.updates.Load()
	c.Notifies += sess.notifies.Load()
	c.NotifyDropped += sess.out.dropped.Load()
	c.Errors += sess.errors.Load()
}

// Counters returns the serving plane's aggregate counters: retired
// sessions' totals plus the live sessions' current values.
func (s *Server) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.retired
	c.Sessions = int64(len(s.sessions))
	for _, sess := range s.sessions {
		addCounters(&c, sess)
	}
	return c
}

// StartMetrics exposes the server's TelemetrySnapshot (runtime metrics
// plus the dtt_serve_* plane) on addr, returning the bound address.
func (s *Server) StartMetrics(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.metricsSrv = telemetry.Serve(ln, s)
	s.mu.Unlock()
	return ln.Addr().String(), nil
}

// TelemetrySnapshot implements telemetry.Source: the runtime's snapshot
// extended with the serving plane's counters, session gauge and
// trigger-to-notify latency histogram, so one scrape shows the wire and
// the dispatch plane side by side (and the counter identity across both).
func (s *Server) TelemetrySnapshot() telemetry.Snapshot {
	snap := s.rt.TelemetrySnapshot()
	c := s.Counters()
	snap.Counters = append(snap.Counters,
		telemetry.Metric{Name: "dtt_serve_frames_in_total", Help: "Frames received across all sessions.", Value: c.FramesIn},
		telemetry.Metric{Name: "dtt_serve_frames_out_total", Help: "Frames sent across all sessions.", Value: c.FramesOut},
		telemetry.Metric{Name: "dtt_serve_bytes_in_total", Help: "Bytes received, frame headers included.", Value: c.BytesIn},
		telemetry.Metric{Name: "dtt_serve_bytes_out_total", Help: "Bytes sent, frame headers included.", Value: c.BytesOut},
		telemetry.Metric{Name: "dtt_serve_batches_total", Help: "TSTORE_BATCH requests handled.", Value: c.Batches},
		telemetry.Metric{Name: "dtt_serve_stores_total", Help: "Words carried by TSTORE_BATCH requests.", Value: c.Stores},
		telemetry.Metric{Name: "dtt_serve_changed_total", Help: "Value-changing stores among the batched words.", Value: c.Changed},
		telemetry.Metric{Name: "dtt_serve_updates_total", Help: "Operands folded by TUPDATE requests.", Value: c.Updates},
		telemetry.Metric{Name: "dtt_serve_notifies_total", Help: "Notifications (changed words) queued to clients; a word overwritten while pending counts once, and a ranged CHANGE_NOTIFY frame carries one or more.", Value: c.Notifies},
		telemetry.Metric{Name: "dtt_serve_notify_dropped_total", Help: "Notifications (changed words) a closing session could not deliver; equals the sum of the cumulative gap counts carried on CHANGE_NOTIFY frames.", Value: c.NotifyDropped},
		telemetry.Metric{Name: "dtt_serve_errors_total", Help: "ERROR replies sent (semantic request failures).", Value: c.Errors},
		telemetry.Metric{Name: "dtt_serve_sessions_total", Help: "Sessions ever accepted.", Value: c.SessionsTotal},
	)
	snap.Gauges = append(snap.Gauges,
		telemetry.Metric{Name: "dtt_serve_sessions", Help: "Live sessions.", Value: c.Sessions})
	snap.Histograms = append(snap.Histograms,
		s.notifyLat.Snapshot("dtt_serve_notify_latency_ns",
			"Nanoseconds from a TSTORE_BATCH arriving to its CHANGE_NOTIFY being encoded"))
	return snap
}

// Close stops accepting, severs every live session, and waits for all
// server goroutines to exit. It returns the first background Serve error,
// if any, and is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		if errp := s.serveErr.Load(); errp != nil {
			return *errp
		}
		return nil
	}
	s.closed = true
	ln := s.ln
	metrics := s.metricsSrv
	live := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if metrics != nil {
		metrics.Close()
	}
	// Closing each connection unblocks its reader, which runs the full
	// session teardown (namespace cancel, outbox close, removeSession).
	for _, sess := range live {
		sess.conn.Close()
	}
	s.wg.Wait()
	if errp := s.serveErr.Load(); errp != nil {
		return *errp
	}
	return nil
}

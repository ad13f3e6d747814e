package distrib

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"repro/internal/obs"
)

// MeshTimeout bounds how long a process waits for the full peer mesh.
const MeshTimeout = 30 * time.Second

// Hosted is a worker's share of one open session: its Core, which the
// session loop drives (mesh, steps, collect, close), plus the verbs of
// its session kind. Anything embedding *Core has HostCore.
type Hosted interface {
	HostCore() *Core
	// Handle answers one verb the session loop does not know.
	Handle(req Msg) (Msg, error)
}

// ViewHost lets a worker host live views' maintenance sessions: it opens
// the hosted share of a view from the open message (ViewSpec, graph
// replica, recovered shard). The live tier implements it.
type ViewHost interface {
	OpenView(open Msg) (Hosted, error)
}

// ServeWorkerOpts configures a worker process.
type ServeWorkerOpts struct {
	// Log receives connection-level failures (a lost coordinator is
	// normal at shutdown, so they are logged, not fatal).
	Log *log.Logger
	// Obs is the worker's telemetry plane: jobs that arrive with a trace
	// ID record their spans into its ring (and ship them back to the
	// coordinator at collect time). Nil disables it.
	Obs *obs.Registry
	// Views, if set, lets this worker host live-view maintenance
	// sessions in addition to batch jobs.
	Views ViewHost
}

// ServeWorker accepts coordinator control connections on ln and hosts the
// partition ranges they assign. One control connection carries any number
// of sequential sessions; Serve returns when the listener closes.
func ServeWorker(ln net.Listener, lg *log.Logger, reg *obs.Registry) error {
	return ServeWorkerWith(ln, ServeWorkerOpts{Log: lg, Obs: reg})
}

// ServeWorkerWith is ServeWorker with the full option set (telemetry and
// live-view session hosting).
func ServeWorkerWith(ln net.Listener, opts ServeWorkerOpts) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			if err := serveControl(conn, opts); err != nil && !errors.Is(err, io.EOF) && opts.Log != nil {
				opts.Log.Printf("distrib: worker control connection: %v", err)
			}
		}()
	}
}

// serveControl runs one coordinator's control connection to completion:
// sessions one after another. A session that fails to open is answered
// with an error and leaves the connection usable for the next open. A
// panic in a hosted verb ends only this connection: the session's Core
// is closed (its deferred Close runs as the panic unwinds), the
// coordinator is answered with an error, and the worker keeps serving
// every other connection.
func serveControl(nc net.Conn, opts ServeWorkerOpts) (err error) {
	c := newConn(nc)
	defer c.Close()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("distrib: worker session panicked: %v", p)
			c.Send(Msg{Kind: kindError, Err: err.Error()})
		}
	}()
	for {
		open, err := c.next()
		if err != nil {
			return err
		}
		if open.Kind != kindOpen {
			return fmt.Errorf("distrib: control message %q outside a session", open.Kind)
		}
		h, err := openHosted(open, opts)
		if err != nil {
			if err := c.Send(Msg{Kind: kindError, Err: err.Error()}); err != nil {
				return err
			}
			continue
		}
		if err := serveSession(c, h); err != nil {
			return err
		}
	}
}

// openHosted builds this worker's share of the session an open message
// describes.
func openHosted(open Msg, opts ServeWorkerOpts) (Hosted, error) {
	switch {
	case open.Job != nil:
		return openJob(*open.Job, open.HostID, opts.Obs)
	case open.View != nil && opts.Views != nil:
		return opts.Views.OpenView(open)
	case open.View != nil:
		return nil, errors.New("distrib: this worker hosts no views")
	}
	return nil, errors.New("distrib: open without a job or view spec")
}

// serveSession is the worker-side session loop: report ready, take start
// (which must come first, and only once: every other verb needs the mesh
// and the resident fixpoint it opens), then answer the coordinator's
// requests — the protocol's own verbs here, every other verb through h —
// until close. A failed request is answered with an error and ends the
// connection: the coordinator's session is broken anyway, and the worker
// process keeps accepting, which is what lets a restarted coordinator
// recover onto the same workers.
func serveSession(c *Conn, h Hosted) error {
	core := h.HostCore()
	defer core.Close()
	if err := c.Send(Msg{Kind: kindReady, DataAddr: core.dataAddr, Digest: core.Digest}); err != nil {
		return err
	}
	req, err := c.next()
	if err != nil {
		return err
	}
	reply := Msg{Kind: kindMeshed}
	if req.Kind != kindStart {
		err = fmt.Errorf("distrib: %q before start", req.Kind)
	} else if err = core.Mesh(req.DataAddrs); err == nil && core.W0 != nil {
		// Seed this host's share of the cold workset: the session reads
		// only the hosted range of it, so every process seeds from the
		// identical deterministic slice.
		core.Fx.SeedWorkset(core.W0)
	}
	core.W0 = nil
	for {
		if err != nil {
			if serr := c.Send(Msg{Kind: kindError, Err: err.Error()}); serr != nil {
				return serr
			}
			return err
		}
		if err := c.Send(reply); err != nil {
			return err
		}
		if req, err = c.next(); err != nil {
			return err
		}
		switch req.Kind {
		case kindStart:
			err = errors.New("distrib: second start in one session")
		case kindStep:
			reply, err = step(core, req.Epoch)
		case kindCollect:
			reply = Msg{Kind: kindSolution, Frames: core.Collect(core.Cfg.Host)}
			if reg := core.Cfg.Obs; reg != nil && core.Cfg.TraceID != 0 {
				reply.Spans = reg.Trace().SpansFor(core.Cfg.TraceID)
			}
		case kindClose:
			return c.Send(Msg{Kind: kindClosed})
		default:
			reply, err = h.Handle(req)
		}
	}
}

// step runs one released superstep on a worker, after checking the
// release names the plan epoch this host is at.
func step(core *Core, epoch int) (Msg, error) {
	if epoch != core.epoch {
		return Msg{}, fmt.Errorf("distrib: released for superstep at plan epoch %d while at %d", epoch, core.epoch)
	}
	count, err := core.Fx.StepOnce()
	return Msg{Kind: kindStepDone, Count: count, Epoch: core.epoch}, err
}

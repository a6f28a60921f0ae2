package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/engine"
	"icsdetect/internal/serve"
	"icsdetect/internal/trace"
)

// wireServer is one serve.Server on loopback with its measuring
// subscriber attached.
type wireServer struct {
	srv    *serve.Server
	ingest string
	sub    *serve.Subscription
}

// startServer boots a server with the daemon's default tuning over the
// given models and stack. onResult, when non-nil, is installed as the
// serve.Config.OnResult hook (traced runs only).
func startServer(models []serve.Model, spec core.StackSpec, onResult func(engine.Result)) (*wireServer, error) {
	srv, err := serve.New(serve.Config{
		Engine:   engine.Config{Stack: spec},
		Models:   models,
		OnResult: onResult,
	})
	if err != nil {
		return nil, err
	}
	ws := &wireServer{srv: srv}
	if ws.ingest, err = srv.ListenIngest("127.0.0.1:0"); err != nil {
		ws.close()
		return nil, err
	}
	verdicts, err := srv.ListenVerdicts("127.0.0.1:0")
	if err != nil {
		ws.close()
		return nil, err
	}
	if ws.sub, err = serve.Subscribe(verdicts); err != nil {
		ws.close()
		return nil, err
	}
	// The server acknowledges a subscription before its hub registers the
	// subscriber, and verdicts published in between reach no one; wait
	// until the hub counts the subscriber before any traffic flows.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Subscribers == 0 {
		if time.Now().After(deadline) {
			ws.close()
			return nil, fmt.Errorf("subscriber not registered after 5s")
		}
		time.Sleep(50 * time.Microsecond)
	}
	return ws, nil
}

// close shuts the server down and detaches the subscriber.
func (ws *wireServer) close() error {
	err := ws.srv.Shutdown()
	if ws.sub != nil {
		ws.sub.Close()
	}
	return err
}

// replayConn is one replay-mode ingest connection driven record by record,
// so the load generator decides when each record goes on the wire.
type replayConn struct {
	conn *net.TCPConn
	br   *bufio.Reader
}

// dialReplay opens a replay-mode ingest connection for stream and sends the
// trace header. The handshake is the documented ingest protocol of package
// serve: magic, version, mode, then stream, model and precision strings.
func dialReplay(addr, stream string, hdr trace.Header) (*replayConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	conn := c.(*net.TCPConn)
	hello := binary.BigEndian.AppendUint16([]byte("ICSSERVE"), serve.ProtocolVersion)
	hello = append(hello, serve.ModeReplay)
	for _, s := range []string{stream, "", ""} {
		hello = binary.AppendUvarint(hello, uint64(len(s)))
		hello = append(hello, s...)
	}
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil, err
	}
	rc := &replayConn{conn: conn, br: bufio.NewReader(conn)}
	if err := rc.status(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	tw, err := trace.NewWriter(conn, hdr)
	if err == nil {
		err = tw.Flush()
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return rc, nil
}

// status reads one status answer (code byte, uvarint-length message).
func (rc *replayConn) status() error {
	code, err := rc.br.ReadByte()
	if err != nil {
		return err
	}
	n, err := binary.ReadUvarint(rc.br)
	if err != nil {
		return err
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(rc.br, msg); err != nil {
		return err
	}
	if code != 0 {
		return fmt.Errorf("rejected: %s", msg)
	}
	return nil
}

// send writes encoded records onto the wire.
func (rc *replayConn) send(recs []byte) error {
	_, err := rc.conn.Write(recs)
	return err
}

// finish half-closes the connection and returns the server's accepted
// count from the replay trailer.
func (rc *replayConn) finish() (uint64, error) {
	defer rc.conn.Close()
	if err := rc.conn.CloseWrite(); err != nil {
		return 0, err
	}
	if err := rc.status(); err != nil {
		return 0, fmt.Errorf("trailer: %w", err)
	}
	return binary.ReadUvarint(rc.br)
}

// eventBytes is the encoded size of one subscription event, from the frame
// layout documented in package serve (uvarint length prefix plus payload).
func eventBytes(ev serve.Event) int {
	str := func(s string) int { return uvarintLen(uint64(len(s))) + len(s) }
	v := ev.Verdict
	n := str(ev.Stream) + uvarintLen(ev.Seq) + 1 + varintLen(int64(v.Level)) +
		varintLen(int64(v.Rank)) + str(v.Signature) + uvarintLen(uint64(len(v.Evidence)))
	for _, e := range v.Evidence {
		n += str(e.Stage) + varintLen(int64(e.Level)) + 1 + 8 + varintLen(int64(e.Rank))
	}
	return uvarintLen(uint64(n)) + n
}

func uvarintLen(x uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], x)
}

func varintLen(x int64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutVarint(b[:], x)
}

// router delivers subscription events to the phase that owns their
// stream. It runs on one goroutine until the subscription ends.
type router struct {
	cur   atomic.Pointer[phase]
	stray atomic.Int64
	bytes atomic.Int64
}

func (r *router) run(sub *serve.Subscription, clock func() int64) {
	var scratch []byte
	for {
		ev, err := sub.Next()
		if err != nil {
			return
		}
		now := clock()
		ph := r.cur.Load()
		if ph == nil || ev.Stream != ph.streams[0] || ev.Seq >= uint64(ph.n) {
			r.stray.Add(1)
			continue
		}
		if ph.traced {
			r.bytes.Add(int64(eventBytes(ev)))
		}
		var h uint64
		h, scratch = verdictHash(scratch, ev.Verdict)
		ph.deliver(int(ev.Seq), now, h)
	}
}

// Package rpc implements FlyMon's southbound control channel: a
// line-delimited JSON request/response protocol over TCP, standing in for
// P4Runtime between the controller CLI (flymonctl) and the switch daemon
// (flymond). The server wraps a controlplane.Controller; every mutation is
// a runtime-rule installation on the simulated data plane.
package rpc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"flymon/internal/tracing"
)

// Request is one control-channel call. Trace, when present, carries the
// caller's span context so the daemon can parent its dispatch span under
// the controller's operation (distributed tracing). The field is
// optional and ignored-if-unknown on both ends, so old and new peers
// interoperate: an old daemon simply drops the context and the trace
// shows the client-side span only.
type Request struct {
	ID     uint64               `json:"id"`
	Method string               `json:"method"`
	Params json.RawMessage      `json:"params,omitempty"`
	Trace  *tracing.SpanContext `json:"trace,omitempty"`
}

// Response answers a Request with the same ID. When Frame is non-zero,
// exactly that many raw payload bytes follow the response line on the
// stream (the binary frame side-channel): bulk register data rides after
// the envelope instead of inside it, so the JSON machinery never scans
// it. A profile of 256-switch fleet queries showed the base64-in-JSON
// encoding spending ~5 validation/compaction/unquote passes over each
// payload; the frame reduces that to one write and one read.
type Response struct {
	ID     uint64          `json:"id"`
	Error  *Error          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Frame  int             `json:"frame,omitempty"`
}

// Error codes classify the daemon answers a caller acts on instead of just
// reporting; every other error travels with an empty code.
const (
	// CodeNoTask: the addressed task ID is not deployed — what an idempotent
	// remove treats as already removed.
	CodeNoTask = "no_task"
	// CodeNoEpochTask: no epoch task by that name, likewise.
	CodeNoEpochTask = "no_epoch_task"
	// CodeEpochUnavailable: the daemon cannot serve that epoch (yet); Have
	// says whether it is behind (a straggler: poll or skip) or past it (the
	// snapshot was evicted: fail).
	CodeEpochUnavailable = "epoch_unavailable"
	// CodeLayoutDiverged: a readout or deployment whose layout fingerprint
	// differs from the reference it would be merged under. No daemon answers
	// it — a switch cannot know the reference — the fleet controller raises
	// it about a switch, in the same shape as the switch's own errors.
	CodeLayoutDiverged = "layout_diverged"
)

// Error is an error the daemon answered with, as opposed to a failure of
// the channel (TransportError). Clients return it wrapped; match with
// errors.As and compare Code.
type Error struct {
	Code string `json:"code,omitempty"`
	Msg  string `json:"msg"`
	// Have is the daemon's latest completed epoch (CodeEpochUnavailable).
	Have int `json:"have,omitempty"`
}

func (e *Error) Error() string { return e.Msg }

// maxLine bounds a single protocol line (a register readout of a large
// partition is the biggest payload).
const maxLine = 64 << 20

// codec frames newline-delimited JSON messages over a stream.
type codec struct {
	r *bufio.Reader
	w *bufio.Writer
}

func newCodec(rw io.ReadWriter) *codec {
	return &codec{
		r: bufio.NewReaderSize(rw, 1<<16),
		w: bufio.NewWriterSize(rw, 1<<16),
	}
}

func (c *codec) write(v any) error { return c.writeFramed(v, nil) }

// writeFramed sends one message line followed by an optional raw binary
// frame, in a single flush. The caller must have set the message's Frame
// field to len(frame) so the peer knows how many bytes to consume.
func (c *codec) writeFramed(v any, frame []byte) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("rpc: encoding message: %w", err)
	}
	if _, err := c.w.Write(b); err != nil {
		return err
	}
	if err := c.w.WriteByte('\n'); err != nil {
		return err
	}
	if len(frame) > 0 {
		if _, err := c.w.Write(frame); err != nil {
			return err
		}
	}
	return c.w.Flush()
}

func (c *codec) read(v any) error {
	line, err := readLongLine(c.r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("rpc: decoding message: %w", err)
	}
	return nil
}

// readFrame consumes exactly n raw bytes following a response line. The
// bytes MUST be consumed (or the connection torn down) whenever a
// response announces a frame, or every later message on the stream is
// garbage.
func (c *codec) readFrame(n int) ([]byte, error) {
	if n <= 0 || n > maxLine {
		return nil, fmt.Errorf("rpc: frame of %d bytes out of range", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, fmt.Errorf("rpc: reading %d-byte frame: %w", n, err)
	}
	return buf, nil
}

// discardFrame consumes and drops n frame bytes (stale-response draining).
func (c *codec) discardFrame(n int) error {
	if n <= 0 || n > maxLine {
		return fmt.Errorf("rpc: frame of %d bytes out of range", n)
	}
	if _, err := c.r.Discard(n); err != nil {
		return fmt.Errorf("rpc: discarding %d-byte frame: %w", n, err)
	}
	return nil
}

func readLongLine(r *bufio.Reader) ([]byte, error) {
	var buf []byte
	for {
		chunk, isPrefix, err := r.ReadLine()
		if err != nil {
			return nil, err
		}
		buf = append(buf, chunk...)
		if len(buf) > maxLine {
			return nil, fmt.Errorf("rpc: message exceeds %d bytes", maxLine)
		}
		if !isPrefix {
			return buf, nil
		}
	}
}

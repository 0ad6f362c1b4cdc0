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
// stream (the binary frame side-channel): a register readout's rows ride
// after the envelope as little-endian uint32s, so the JSON machinery never
// scans them. On a little-endian host the frame is the rows' own memory,
// written from the stored snapshot and read into the caller's buffers.
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

// write sends one message line, then rows as a raw binary frame whose byte
// count the message's Frame field must announce, in a single flush.
func (c *codec) write(v any, rows ...[]uint32) error {
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
	if err := writeRows(c.w, rows); err != nil {
		return err
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

// readResponse reads the answer to request id into result, draining up to
// drainLimit stale (lower-ID) answers; a daemon's error returns as its
// *Error. An announced frame is always consumed — read into a framed
// result's rows once frameGeometry admits it, else discarded — so a refused
// answer leaves the stream in sync (a broken line or short frame does not).
func (c *codec) readResponse(id uint64, result any) error {
	for drained := 0; ; drained++ {
		var resp Response
		if err := c.read(&resp); err != nil {
			return fmt.Errorf("receiving: %w", err)
		}
		if resp.Frame < 0 || resp.Frame > maxLine {
			return fmt.Errorf("rpc: frame of %d bytes out of range", resp.Frame)
		}
		if resp.ID > id || resp.ID < id && drained >= drainLimit {
			return fmt.Errorf("response id %d for request %d: stream desynced", resp.ID, id)
		}
		var err error
		switch {
		case resp.ID < id: // stale: drain its frame and read on
		case resp.Error != nil:
			err = resp.Error
		case result != nil:
			if err = json.Unmarshal(resp.Result, result); err != nil {
				err = fmt.Errorf("decoding result: %w", err)
			} else if fr, ok := result.(framed); ok {
				r := fr.registers()
				if err = frameGeometry(r.RowLens, resp.Frame); err == nil {
					r.rows, err = readRows(c.r, r.RowLens, r.rows)
					return err
				}
			}
		}
		if _, derr := c.r.Discard(resp.Frame); derr != nil {
			return fmt.Errorf("rpc: discarding %d-byte frame: %w", resp.Frame, derr)
		}
		if resp.ID == id {
			return err
		}
	}
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

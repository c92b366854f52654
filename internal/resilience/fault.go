package resilience

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// Fault is one injectable transport failure mode.
type Fault int

const (
	// FaultNone passes the exchange through untouched.
	FaultNone Fault = iota
	// FaultError fails the exchange's first write with ErrInjected and
	// closes the underlying connection, as a mid-exchange network reset
	// would.
	FaultError
	// FaultLatency delays the exchange's first write by the injector's
	// configured latency, then proceeds normally.
	FaultLatency
	// FaultHang lets the request out but never delivers the response: reads
	// block until the connection is closed or its read deadline expires.
	FaultHang
	// FaultCorrupt flips the first byte of the exchange's first write. On
	// the framed RPC transport that write is the 4-byte length prefix, so
	// the peer sees an insane frame length and drops the connection — the
	// canonical corrupt-frame failure.
	FaultCorrupt
)

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultError:
		return "error"
	case FaultLatency:
		return "latency"
	case FaultHang:
		return "hang"
	case FaultCorrupt:
		return "corrupt"
	}
	return "unknown"
}

// ErrInjected is the synthetic transport error produced by FaultError.
var ErrInjected = errors.New("resilience: injected transport fault")

// FaultConfig tunes the random-mode injector: each probability is the
// per-exchange chance of that fault, evaluated in the order error, hang,
// corrupt, latency (at most one fault per exchange).
type FaultConfig struct {
	PError, PHang, PCorrupt, PLatency float64
	// Latency is the delay injected by FaultLatency (default 10ms).
	Latency time.Duration
}

// Injector decides which fault, if any, each transport exchange suffers. It
// is deterministic in both modes: a scripted injector replays an explicit
// fault sequence (then runs clean), and a random injector draws from a
// seeded source, so a fixed seed reproduces the exact same fault pattern.
// One injector may wrap any number of connections; the script/source is
// shared and consumed in exchange order across all of them.
//
// An exchange is a write burst and the reads that follow it: the first
// Write after a Read (or after dialing) consumes the next fault decision,
// and that decision governs the connection until the next exchange starts.
// On the serve RPC framing, one exchange is exactly one request/response
// round trip.
type Injector struct {
	mu      sync.Mutex
	script  []Fault
	cursor  int
	rng     *rand.Rand
	cfg     FaultConfig
	latency time.Duration
	counts  map[Fault]int
}

// NewScript builds an injector that replays the given faults, one per
// exchange, then injects nothing.
func NewScript(faults ...Fault) *Injector {
	return &Injector{script: faults, latency: 10 * time.Millisecond, counts: make(map[Fault]int)}
}

// NewRandom builds an injector drawing faults from a seeded source.
func NewRandom(seed int64, cfg FaultConfig) *Injector {
	lat := cfg.Latency
	if lat <= 0 {
		lat = 10 * time.Millisecond
	}
	return &Injector{rng: rand.New(rand.NewSource(seed)), cfg: cfg, latency: lat, counts: make(map[Fault]int)}
}

// next consumes one fault decision.
func (in *Injector) next() Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	f := FaultNone
	switch {
	case in.rng != nil:
		switch r := in.rng.Float64(); {
		case r < in.cfg.PError:
			f = FaultError
		case r < in.cfg.PError+in.cfg.PHang:
			f = FaultHang
		case r < in.cfg.PError+in.cfg.PHang+in.cfg.PCorrupt:
			f = FaultCorrupt
		case r < in.cfg.PError+in.cfg.PHang+in.cfg.PCorrupt+in.cfg.PLatency:
			f = FaultLatency
		}
	case in.cursor < len(in.script):
		f = in.script[in.cursor]
		in.cursor++
	}
	in.counts[f]++
	return f
}

// Injected returns how many exchanges have suffered the given fault.
func (in *Injector) Injected(f Fault) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[f]
}

// WrapConn wraps a connection so that every exchange over it consults the
// injector. It is the transport hook the serve package accepts on both the
// client (dial hook) and the server (Options.ConnHook) side.
func (in *Injector) WrapConn(c net.Conn) net.Conn {
	return &faultConn{Conn: c, in: in, closed: make(chan struct{})}
}

// faultConn applies one injector decision per exchange to a wrapped
// connection.
type faultConn struct {
	net.Conn
	in *Injector

	mu           sync.Mutex
	writing      bool // inside a write burst (fault already drawn)
	pending      Fault
	readDeadline time.Time
	// deadlineSet, while a read hangs, is closed by the next deadline change
	// so the hung read re-arms against the new deadline.
	deadlineSet chan struct{}

	closeOnce sync.Once
	closed    chan struct{}
}

// Write consults the injector at the start of each exchange (the first
// write after a read) and applies the drawn fault: error closes the
// connection, latency sleeps once, corrupt flips a byte of the first frame.
func (fc *faultConn) Write(b []byte) (int, error) {
	fc.mu.Lock()
	if !fc.writing {
		fc.writing = true
		fc.pending = fc.in.next()
	}
	f := fc.pending
	fc.mu.Unlock()

	switch f {
	case FaultError:
		fc.Close()
		return 0, ErrInjected
	case FaultLatency:
		fc.setPending(FaultNone) // delay once, then run clean
		time.Sleep(fc.in.latencyFor())
	case FaultCorrupt:
		fc.setPending(FaultNone) // corrupt the first write only
		mangled := make([]byte, len(b))
		copy(mangled, b)
		if len(mangled) > 0 {
			mangled[0] ^= 0xff
		}
		return fc.Conn.Write(mangled)
	}
	return fc.Conn.Write(b)
}

// Read delivers the peer's bytes unless the exchange drew FaultHang, in
// which case the response never arrives: the read blocks until the
// connection closes or its deadline expires.
func (fc *faultConn) Read(b []byte) (int, error) {
	fc.mu.Lock()
	fc.writing = false
	f := fc.pending
	fc.mu.Unlock()

	if f == FaultHang {
		return 0, fc.hang()
	}
	return fc.Conn.Read(b)
}

// hang blocks a read whose response never arrives until the connection is
// closed or the read deadline passes. As on a real net.Conn, a deadline set
// from another goroutine while the read hangs applies to it: the wait
// re-arms against the new deadline (a past one fails the read at once).
func (fc *faultConn) hang() error {
	for {
		fc.mu.Lock()
		deadline := fc.readDeadline
		if fc.deadlineSet == nil {
			fc.deadlineSet = make(chan struct{})
		}
		moved := fc.deadlineSet
		fc.mu.Unlock()

		var expire <-chan time.Time
		var timer *time.Timer
		if !deadline.IsZero() {
			timer = time.NewTimer(time.Until(deadline))
			expire = timer.C
		}
		var err error
		select {
		case <-fc.closed:
			err = net.ErrClosed
		case <-expire:
			err = os.ErrDeadlineExceeded
		case <-moved:
		}
		if timer != nil {
			timer.Stop()
		}
		if err != nil {
			return err
		}
	}
}

func (fc *faultConn) setPending(f Fault) {
	fc.mu.Lock()
	fc.pending = f
	fc.mu.Unlock()
}

// SetDeadline records the read half for hang emulation and forwards to the
// wrapped connection.
func (fc *faultConn) SetDeadline(t time.Time) error {
	fc.setReadDeadline(t)
	return fc.Conn.SetDeadline(t)
}

// SetReadDeadline records the deadline for hang emulation and forwards to
// the wrapped connection.
func (fc *faultConn) SetReadDeadline(t time.Time) error {
	fc.setReadDeadline(t)
	return fc.Conn.SetReadDeadline(t)
}

// setReadDeadline records t and wakes a hung read to re-arm against it.
func (fc *faultConn) setReadDeadline(t time.Time) {
	fc.mu.Lock()
	fc.readDeadline = t
	if fc.deadlineSet != nil {
		close(fc.deadlineSet)
		fc.deadlineSet = nil
	}
	fc.mu.Unlock()
}

// Close releases any hung reads and closes the wrapped connection exactly
// once; later calls are no-ops.
func (fc *faultConn) Close() error {
	var err error
	fc.closeOnce.Do(func() {
		close(fc.closed)
		err = fc.Conn.Close()
	})
	return err
}

// latencyFor returns the configured latency injection.
func (in *Injector) latencyFor() time.Duration {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.latency
}

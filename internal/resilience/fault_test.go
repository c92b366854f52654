package resilience

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// echoPair returns a client conn wrapped by the injector, connected over
// TCP loopback to a server that echoes every byte back. TCP (not net.Pipe)
// because the echo must buffer a whole write burst without a reader.
func echoPair(t *testing.T, in *Injector) net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		server, err := ln.Accept()
		if err != nil {
			return
		}
		defer server.Close()
		io.Copy(server, server)
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := in.WrapConn(client)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestScriptCleanExchangePassesThrough(t *testing.T) {
	c := echoPair(t, NewScript()) // empty script: always clean
	msg := []byte("hello")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("echo = %q, want %q", buf, msg)
	}
}

func TestScriptErrorFault(t *testing.T) {
	in := NewScript(FaultError)
	c := echoPair(t, in)
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Write = %v, want ErrInjected", err)
	}
	if got := in.Injected(FaultError); got != 1 {
		t.Fatalf("Injected(FaultError) = %d, want 1", got)
	}
	// The connection was closed by the fault, as a reset would.
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("Read on a reset connection succeeded")
	}
}

func TestScriptCorruptFlipsFirstByteOnce(t *testing.T) {
	in := NewScript(FaultCorrupt)
	c := echoPair(t, in)
	// Exchange 1: corrupted. The wrapper must not mutate the caller's buffer.
	msg := []byte{0x01, 0x02}
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if msg[0] != 0x01 {
		t.Fatal("injector mutated the caller's write buffer")
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x01^0xff || buf[1] != 0x02 {
		t.Fatalf("echoed %v, want first byte flipped only", buf)
	}
	// Exchange 2: the script is exhausted, bytes flow untouched.
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("second exchange = %v, want clean %v", buf, msg)
	}
}

func TestScriptLatencyDelaysExchange(t *testing.T) {
	in := NewScript(FaultLatency)
	in.latency = 30 * time.Millisecond
	c := echoPair(t, in)
	start := time.Now()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("exchange took %v, want >= 30ms of injected latency", d)
	}
}

func TestScriptHangHonorsReadDeadline(t *testing.T) {
	in := NewScript(FaultHang)
	c := echoPair(t, in)
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	_, err := c.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read under hang = %v, want deadline exceeded", err)
	}
}

// hungRead starts a read on a connection whose exchange drew FaultHang and
// returns the connection and the read's result.
func hungRead(t *testing.T) (net.Conn, <-chan error) {
	c := echoPair(t, NewScript(FaultHang))
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the read start hanging
	return c, errc
}

// TestScriptHangWokenByLaterDeadline sets a past deadline while a read
// hangs with none: as on a real net.Conn, the read fails at once.
func TestScriptHangWokenByLaterDeadline(t *testing.T) {
	c, errc := hungRead(t)
	c.SetReadDeadline(time.Now())
	select {
	case err := <-errc:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("hung Read after a past deadline = %v, want deadline exceeded", err)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("a deadline set during a hung read did not wake it")
	}
}

func TestScriptHangReleasedByClose(t *testing.T) {
	c, errc := hungRead(t)
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Read after close = %v, want net.ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("hung read was not released by Close")
	}
}

func TestScriptConsumesOneFaultPerExchange(t *testing.T) {
	in := NewScript(FaultNone, FaultCorrupt, FaultNone)
	c := echoPair(t, in)
	buf := make([]byte, 4)
	for i := 0; i < 3; i++ {
		// Two writes in one burst consume a single decision (the framed
		// transport writes header and payload separately).
		if _, err := c.Write([]byte("ab")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte("cd")); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
		wantCorrupt := i == 1
		if gotCorrupt := buf[0] != 'a'; gotCorrupt != wantCorrupt {
			t.Fatalf("exchange %d corrupt = %v, want %v (buf %q)", i, gotCorrupt, wantCorrupt, buf)
		}
	}
	if got := in.Injected(FaultNone); got != 2 {
		t.Fatalf("clean exchanges = %d, want 2", got)
	}
}

func TestRandomInjectorDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []Fault {
		in := NewRandom(seed, FaultConfig{PError: 0.3, PHang: 0.1, PCorrupt: 0.1, PLatency: 0.2})
		var seq []Fault
		for i := 0; i < 64; i++ {
			seq = append(seq, in.next())
		}
		return seq
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	saw := make(map[Fault]bool)
	for _, f := range a {
		saw[f] = true
	}
	for _, f := range []Fault{FaultNone, FaultError} {
		if !saw[f] {
			t.Errorf("64 draws at these probabilities never produced %v", f)
		}
	}
}

func TestFaultString(t *testing.T) {
	want := map[Fault]string{
		FaultNone: "none", FaultError: "error", FaultLatency: "latency",
		FaultHang: "hang", FaultCorrupt: "corrupt", Fault(99): "unknown",
	}
	for f, s := range want {
		if f.String() != s {
			t.Errorf("Fault(%d).String() = %q, want %q", f, f.String(), s)
		}
	}
}

package kernel

import (
	"bytes"
	"testing"
	"time"
)

// pattern returns n deterministic bytes that differ per seed.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%251)
	}
	return b
}

// scribble appends to b up to its capacity and then overwrites every
// byte, as the owner of a slice may.
func scribble(b []byte) {
	b = append(b, make([]byte, cap(b)-len(b))...)
	for i := range b {
		b[i] = 0xEE
	}
}

// TestSocketBufferOwnership pins the ownership rule on stream socket
// buffers: a slice handed across the socket API is never referenced
// again by the side that gave it.  Whatever a sender does to its buffer
// after Send or TrySend, and whatever a reader does to a slice Recv
// returned, the peer reads the bytes that were sent.
func TestSocketBufferOwnership(t *testing.T) {
	t.Run("sender overwrites after Send and TrySend", func(t *testing.T) {
		te := newEnv(t, 1)
		te.run(t, func(task *Task) {
			a, b := task.SocketPair()
			x, y := pattern(1000, 1), pattern(500, 2)
			want := append(append([]byte(nil), x...), y...)
			if n, err := task.Send(a, x); n != len(x) || err != nil {
				t.Fatalf("Send = %d, %v", n, err)
			}
			scribble(x)
			if n, err := task.TrySend(a, y); n != len(y) || err != nil {
				t.Fatalf("TrySend = %d, %v", n, err)
			}
			scribble(y)
			got, err := task.RecvN(b, len(want))
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("peer read %d bytes that differ from those sent (%v)", len(got), err)
			}
		})
	})

	t.Run("reader writes into and appends to what it read", func(t *testing.T) {
		te := newEnv(t, 1)
		te.run(t, func(task *Task) {
			a, b := task.SocketPair()
			// z is small enough to fit in the spare capacity of an
			// earlier read's slice, so a kernel that kept appending
			// into a handed-over buffer would lose it to the scribble.
			x, y, z := pattern(3000, 3), pattern(2000, 4), pattern(40, 5)
			var held []byte
			read := func(max int, want []byte) {
				t.Helper()
				got, err := task.Recv(b, max)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("Recv(%d) = %d bytes that differ from those sent (%v)", max, len(got), err)
				}
				held = got
			}
			// send lets a frame land while the reader still holds its
			// last slice, then scribbles over that slice.
			send := func(data []byte) {
				task.Send(a, append([]byte(nil), data...))
				task.Compute(time.Millisecond)
				scribble(held)
			}
			send(x)
			read(1000, x[:1000]) // partial read
			send(y)
			read(1<<20, append(append([]byte(nil), x[1000:]...), y...)) // full read
			send(z)
			read(20, z[:20])
			scribble(held)
			read(1<<20, z[20:])
		})
	})

	t.Run("Unread after a full read", func(t *testing.T) {
		te := newEnv(t, 1)
		te.run(t, func(task *Task) {
			a, b := task.SocketPair()
			ep, err := task.streamFor(b)
			if err != nil {
				t.Fatal(err)
			}
			x, y := pattern(2500, 6), pattern(800, 7)
			want := append(append([]byte(nil), x...), y...)
			task.Send(a, append([]byte(nil), x...))
			task.Compute(time.Millisecond)
			got, err := task.Recv(b, 1<<20)
			if err != nil || !bytes.Equal(got, x) {
				t.Fatalf("full read = %d bytes, %v", len(got), err)
			}
			ep.Unread(got)
			scribble(got)
			task.Send(a, append([]byte(nil), y...))
			task.Compute(time.Millisecond)
			got, err = task.RecvN(b, len(want))
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("read back %d bytes that differ from those sent (%v)", len(got), err)
			}
		})
	})

	t.Run("frame split by the window", func(t *testing.T) {
		te := newEnv(t, 1)
		te.run(t, func(task *Task) {
			a, b := task.SocketPair()
			bufCap := int(task.P.params().SocketBufBytes)
			msg := pattern(bufCap+bufCap/2, 8)
			want := append([]byte(nil), msg...)
			task.P.SpawnTask("sender", false, func(st *Task) {
				st.Send(a, msg)
				scribble(msg)
			})
			task.Compute(10 * time.Millisecond)
			first, err := task.Recv(b, 1<<20)
			if err != nil || len(first) != bufCap || !bytes.Equal(first, want[:bufCap]) {
				t.Fatalf("first delivery = %d bytes, want the %d-byte window (%v)", len(first), bufCap, err)
			}
			scribble(first)
			rest, err := task.RecvN(b, len(want)-bufCap)
			if err != nil || !bytes.Equal(rest, want[bufCap:]) {
				t.Errorf("second delivery = %d bytes that differ from those sent (%v)", len(rest), err)
			}
		})
	})
}

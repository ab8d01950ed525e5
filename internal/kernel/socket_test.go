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
			if n, err := task.TrySend(a, nil, y); n != len(y) || err != nil {
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

// TestSocketBufPool pins the recycling of in-flight socket buffers: a
// large segment reuses an array given back to the kernel, small frames
// never take one, an arrival appended to buffered bytes gives its own
// array back, and the free list keeps only arrays of the sizes it can
// reuse, up to its bound, dropping the coldest when full.
func TestSocketBufPool(t *testing.T) {
	t.Run("large segment reuses a released buffer", func(t *testing.T) {
		te := newEnv(t, 1)
		te.run(t, func(task *Task) {
			a, b := task.SocketPair()
			win := int(task.P.params().SocketBufBytes)
			x, y := pattern(win-100, 1), pattern(win/2, 2)
			task.Send(a, x)
			task.Compute(time.Millisecond)
			first, err := task.Recv(b, 1<<20)
			if err != nil || !bytes.Equal(first, x) {
				t.Fatalf("first read = %d bytes, %v", len(first), err)
			}
			arr := &first[:1][0]
			task.ReleaseBuf(first)
			if n := len(te.c.freeBufs); n != 1 {
				t.Fatalf("free list holds %d buffers after one release, want 1", n)
			}
			task.Send(a, y)
			task.Compute(time.Millisecond)
			second, err := task.Recv(b, 1<<20)
			if err != nil || !bytes.Equal(second, y) {
				t.Fatalf("second read = %d bytes that differ from those sent (%v)", len(second), err)
			}
			if &second[:1][0] != arr {
				t.Error("the second large segment did not reuse the released buffer")
			}
			if n := len(te.c.freeBufs); n != 0 {
				t.Errorf("free list holds %d buffers after the reuse, want 0", n)
			}
		})
	})

	t.Run("small frames never take a pooled buffer", func(t *testing.T) {
		te := newEnv(t, 1)
		te.run(t, func(task *Task) {
			a, b := task.SocketPair()
			win := int(task.P.params().SocketBufBytes)
			pooled := make([]byte, 0, win)
			task.ReleaseBuf(pooled)
			// With its 4-byte header, the largest frame is one byte
			// short of the pooling threshold.
			for _, n := range []int{1, 12, 4 << 10, win/poolMinDiv - 5} {
				msg := pattern(n, byte(n))
				if err := task.SendFrame(a, msg); err != nil {
					t.Fatal(err)
				}
				task.Compute(time.Millisecond)
				got, err := task.RecvFrame(b)
				if err != nil || !bytes.Equal(got, msg) {
					t.Fatalf("frame of %d bytes read back as %d bytes (%v)", n, len(got), err)
				}
				if len(te.c.freeBufs) != 1 || &te.c.freeBufs[0][:1][0] != &pooled[:1][0] {
					t.Fatalf("a %d-byte frame took the pooled buffer", n)
				}
			}
		})
	})

	t.Run("arrival appended to buffered bytes gives its buffer back", func(t *testing.T) {
		te := newEnv(t, 1)
		te.run(t, func(task *Task) {
			a, b := task.SocketPair()
			win := int(task.P.params().SocketBufBytes)
			x, y := pattern(win/2, 3), pattern(win/2, 4)
			task.Send(a, x)
			task.Send(a, y)
			task.Compute(time.Millisecond)
			if n := len(te.c.freeBufs); n != 1 {
				t.Errorf("free list holds %d buffers after an appended arrival, want 1", n)
			}
			got, err := task.RecvN(b, len(x)+len(y))
			if err != nil || !bytes.Equal(got, append(append([]byte(nil), x...), y...)) {
				t.Errorf("read back %d bytes that differ from those sent (%v)", len(got), err)
			}
			if n := len(te.c.freeBufs); n != 2 {
				t.Errorf("free list holds %d buffers after RecvN, want 2", n)
			}
		})
	})

	t.Run("free list stays within its bound", func(t *testing.T) {
		te := newEnv(t, 1)
		te.run(t, func(task *Task) {
			win := int(task.P.params().SocketBufBytes)
			task.ReleaseBuf(nil)
			task.ReleaseBuf(make([]byte, win-1))
			task.ReleaseBuf(make([]byte, 0, poolMaxCapMul*win+1))
			if n := len(te.c.freeBufs); n != 0 {
				t.Errorf("free list took %d buffers of sizes it cannot reuse", n)
			}
			var released [][]byte
			for i := 0; i < poolMaxBufs+10; i++ {
				b := make([]byte, win)
				released = append(released, b)
				task.ReleaseBuf(b)
				if n := len(te.c.freeBufs); n > poolMaxBufs {
					t.Fatalf("free list holds %d buffers, over its bound of %d", n, poolMaxBufs)
				}
			}
			if n := len(te.c.freeBufs); n != poolMaxBufs {
				t.Errorf("free list holds %d buffers, want its bound of %d", n, poolMaxBufs)
			}
			// A full list keeps the latest releases, the latest on top.
			for i, fb := range te.c.freeBufs {
				if want := released[10+i]; &fb[:1][0] != &want[:1][0] {
					t.Fatalf("free list slot %d does not hold release %d", i, 10+i)
				}
			}
			for _, fb := range te.c.freeBufs {
				if len(fb) != 0 || cap(fb) < win || cap(fb) > poolMaxCapMul*win {
					t.Fatalf("free list holds a buffer of len %d, cap %d", len(fb), cap(fb))
				}
			}
		})
	})
}

// TestSendContinuationSplitsHeader pins the gather send's continuation:
// when a checkpoint suspends a SendFrame after part of its length
// header was queued, SendContinuation returns the rest of the header
// followed by the whole payload, and the delivered bytes plus that
// continuation are exactly the frame.
func TestSendContinuationSplitsHeader(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		a, b := task.SocketPair()
		win := int(task.P.params().SocketBufBytes)
		fill := pattern(win-2, 5) // leaves room for 2 of the 4 header bytes
		task.Send(a, fill)
		payload := pattern(3000, 6)
		var sender *Task
		sender = task.P.SpawnTask("sender", false, func(st *Task) {
			st.SendFrame(a, payload)
		})
		task.Compute(10 * time.Millisecond) // sender now stalled on the window
		sender.T.Suspend()
		cont := sender.SendContinuation()
		frame := append([]byte{0, 0, 0x0b, 0xb8}, payload...) // 3000 = 0x0bb8
		switch {
		case cont == nil:
			t.Error("no send continuation captured")
		case cont.FD != a:
			t.Errorf("continuation fd = %d, want %d", cont.FD, a)
		case !bytes.Equal(cont.Remaining, frame[2:]):
			t.Errorf("continuation = %d bytes, want the last 2 header bytes and the %d-byte payload", len(cont.Remaining), len(payload))
		default:
			got, err := task.RecvN(b, len(fill)+2)
			if err != nil || !bytes.Equal(got[len(fill):], frame[:2]) {
				t.Errorf("delivered header bytes = %x, want %x (%v)", got[len(fill):], frame[:2], err)
			}
		}
		sender.T.Resume()
	})
}

// TestResumeSendHoldsStream pins the ordering of a restored send: once
// ResumeSend has handed an interrupted send's tail to its own task, no
// other user task's bytes go out on the stream until that tail has, so
// a replaying program cannot slip a frame into the middle of it.  A
// daemon task is not held: a checkpoint that suspends the resumed send
// halfway still gets its drain token onto the stream.
func TestResumeSendHoldsStream(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		a, b := task.SocketPair()
		win := int(task.P.params().SocketBufBytes)
		tail, next, token := pattern(win+1000, 9), pattern(100, 10), []byte("tok")
		task.ResumeSend(a, tail)
		task.Compute(time.Millisecond) // the tail fills the window and blocks
		var sc *Task
		for _, u := range task.P.UserTasks() {
			if u.Role == "send-cont" {
				sc = u
			}
		}
		if sc == nil {
			t.Fatal("ResumeSend started no send-cont task")
		}
		sc.T.Suspend() // as a checkpoint would
		head, err := task.Recv(b, 2000)
		if err != nil || !bytes.Equal(head, tail[:2000]) {
			t.Fatalf("first read = %d bytes, %v", len(head), err)
		}
		if n, err := task.TrySend(a, nil, next); n != 0 || err != nil {
			t.Errorf("a user TrySend queued %d bytes (%v) while the resumed send held the stream", n, err)
		}
		var daemonSent int
		daemon := task.P.SpawnTask("drain", true, func(d *Task) {
			daemonSent, _ = d.TrySend(a, nil, token)
		})
		daemon.T.Join(task.T)
		if daemonSent != len(token) {
			t.Errorf("the daemon's TrySend queued %d bytes, want all %d", daemonSent, len(token))
		}
		sc.T.Resume()
		sent := 0
		for tries := 0; sent == 0 && tries < 100; tries++ {
			task.Compute(time.Millisecond)
			if sent, err = task.TrySend(a, nil, next); err != nil {
				t.Fatal(err)
			}
		}
		if sent != len(next) {
			t.Fatalf("TrySend after the resumed send finished queued %d bytes, want %d", sent, len(next))
		}
		var want []byte
		for _, p := range [][]byte{tail[2000:win], token, tail[win:], next} {
			want = append(want, p...)
		}
		got, err := task.RecvN(b, len(want))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("stream after the first read = %d bytes that differ from the tail, token, rest of the tail and the later write (%v)", len(got), err)
		}
	})
}

package kernel

// Socket byte path buffers.  A send hands the kernel its bytes as a
// gather: the rest of a header, then the rest of a body, which the
// kernel copies into one in-flight segment.  Large segments are copied
// into buffers recycled through a free list on the Cluster, so in the
// steady state the kernel's copy writes warm memory and allocates
// nothing.  A segment never exceeds one window (SocketBufBytes): Send
// and TrySend queue at most the peer's free window at a time.  So every
// pooled buffer holds at least one window, and any large segment fits
// in whichever buffer the free list gives back.
const (
	// poolMinDiv sets which segments take a pooled buffer: those of at
	// least SocketBufBytes/poolMinDiv bytes.  Smaller frames (control
	// messages, headers, window remainders) get a buffer of their own
	// size, so a reader that keeps one never pins a whole window.
	poolMinDiv = 2
	// poolMaxCapMul bounds the buffers the free list takes back: from
	// one window to poolMaxCapMul windows of capacity.
	poolMaxCapMul = 2
	// poolMaxBufs bounds the free list's length, so it never holds more
	// than poolMaxBufs × poolMaxCapMul windows.
	poolMaxBufs = 32
)

// gather is a send's unsent bytes: the rest of a header, then the rest
// of a body.  The kernel copies them into segments; it refers to the
// slices only while the send they belong to is in progress.
type gather struct{ head, body []byte }

func (g gather) len() int { return len(g.head) + len(g.body) }

// split returns the first n bytes of g and the rest.
func (g gather) split(n int) (front, rest gather) {
	if n <= len(g.head) {
		return gather{head: g.head[:n]}, gather{g.head[n:], g.body}
	}
	n -= len(g.head)
	return gather{g.head, g.body[:n]}, gather{body: g.body[n:]}
}

// appendTo appends g's bytes, head then body, to dst.
func (g gather) appendTo(dst []byte) []byte {
	return append(append(dst, g.head...), g.body...)
}

// sockBuf returns an empty buffer with room for an n-byte in-flight
// segment: a recycled one when the segment is large enough to pool and
// the free list holds one, else a new one.  A new buffer for a large
// segment gets a full window of capacity, so it can be pooled later.
func (c *Cluster) sockBuf(n int) []byte {
	win := int(c.Params.SocketBufBytes)
	if n < win/poolMinDiv {
		return make([]byte, 0, n)
	}
	if k := len(c.freeBufs) - 1; k >= 0 && cap(c.freeBufs[k]) >= n {
		b := c.freeBufs[k]
		c.freeBufs[k] = nil
		c.freeBufs = c.freeBufs[:k]
		return b
	}
	return make([]byte, 0, max(n, win))
}

// releaseBuf takes b back for the next large segment, if its capacity
// suits the pool; otherwise b is left to the garbage collector.  A
// full free list drops its coldest buffer, the one given back longest
// ago, so the buffer most recently written or read is the next one
// reused.  The caller never references b again.
func (c *Cluster) releaseBuf(b []byte) {
	win := int(c.Params.SocketBufBytes)
	if cap(b) < win || cap(b) > poolMaxCapMul*win {
		return
	}
	if len(c.freeBufs) == poolMaxBufs {
		copy(c.freeBufs, c.freeBufs[1:])
		c.freeBufs = c.freeBufs[:poolMaxBufs-1]
	}
	c.freeBufs = append(c.freeBufs, b[:0])
}

// ReleaseBuf gives b back to the kernel, which may reuse its array for
// a later socket arrival.  It suits a slice Recv handed over, or any
// other slice the caller owns outright, once its bytes are no longer
// needed.  Here the socket API's ownership rule gains a clause: a slice
// given back to the kernel is never referenced again by the side that
// gave it, and neither is any slice sharing its array.  The kernel
// keeps only arrays of one to poolMaxCapMul windows, up to poolMaxBufs
// of them, and drops the rest.  No virtual time is charged.
func (t *Task) ReleaseBuf(b []byte) { t.P.Node.Cluster.releaseBuf(b) }

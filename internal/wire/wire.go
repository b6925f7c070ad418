// Package wire implements the request and response bodies of crnserve's
// estimate endpoints without reflection: the zero-copy binary batch
// protocol negotiated on /estimate/batch via Content-Type:
// application/x-crn-batch, and (json.go) a strict reader and appending
// encoders for the canonical JSON bodies of /estimate and /estimate/batch.
//
// Frame format (all integers little-endian, version byte first):
//
//	request:  u8 version=1 | u32 count | count × (u32 len | len bytes of SQL)
//	response: u8 version=1 | u32 count | count × f64 cardinality (IEEE 754 bits)
//
// The request decoder performs exactly two allocations regardless of batch
// size: one []string header block and one byte arena sized to the sum of the
// query lengths. Query strings are unsafe views into that arena — safe
// because the arena is written once, never pooled or reused, and owned by
// the garbage collector like any ordinary allocation; the arena is
// pre-sized, so the backing array never moves after the views are taken.
// Callers may retain the strings indefinitely. Response encoding appends
// raw float64 bits into a caller-provided buffer (see BufferPool), so the
// hot path does no JSON reflection and no per-element boxing.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Version is the only frame version this package speaks.
const Version = 1

// ContentType is the negotiation token for the binary batch protocol.
const ContentType = "application/x-crn-batch"

// ErrBadFrame is wrapped by every decode error.
var ErrBadFrame = errors.New("wire: malformed frame")

// ErrTooMany is returned (wrapped) when a request frame declares more
// queries than the caller's limit.
var ErrTooMany = errors.New("wire: too many queries")

const headerSize = 5 // version byte + u32 count

// DecodeRequest parses a request frame. maxQueries bounds the declared
// count (0 means no bound). The returned strings alias a private arena
// copied out of data, so the caller may recycle data immediately.
func DecodeRequest(data []byte, maxQueries int) ([]string, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: truncated header (%d bytes)", ErrBadFrame, len(data))
	}
	if data[0] != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, data[0])
	}
	count := int(binary.LittleEndian.Uint32(data[1:5]))
	if maxQueries > 0 && count > maxQueries {
		return nil, fmt.Errorf("%w: %d > limit %d", ErrTooMany, count, maxQueries)
	}
	// A query record is at least its 4-byte length prefix, so count can
	// never exceed the remaining payload — rejects absurd counts before the
	// header slice is allocated.
	if body := len(data) - headerSize; count > body/4 {
		return nil, fmt.Errorf("%w: count %d exceeds payload (%d bytes)", ErrBadFrame, count, body)
	}

	// First pass: validate the record structure and size the arena.
	total := 0
	off := headerSize
	for i := 0; i < count; i++ {
		if off+4 > len(data) {
			return nil, fmt.Errorf("%w: truncated length prefix for query %d", ErrBadFrame, i)
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		off += 4
		if n > len(data)-off {
			return nil, fmt.Errorf("%w: query %d length %d past frame end", ErrBadFrame, i, n)
		}
		off += n
		total += n
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(data)-off)
	}

	// Second pass: copy into the arena and take string views. The arena has
	// exact capacity, so append never reallocates and the views never move.
	queries := make([]string, count)
	arena := make([]byte, 0, total)
	off = headerSize
	for i := 0; i < count; i++ {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		off += 4
		start := len(arena)
		arena = append(arena, data[off:off+n]...)
		if n > 0 {
			queries[i] = unsafe.String(&arena[start], n)
		}
		off += n
	}
	return queries, nil
}

// AppendRequest appends a request frame for queries to buf and returns the
// extended slice. It is the client-side encoder and the test harness for
// DecodeRequest.
func AppendRequest(buf []byte, queries []string) []byte {
	buf = append(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(queries)))
	for _, q := range queries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(q)))
		buf = append(buf, q...)
	}
	return buf
}

// AppendResponse appends a response frame carrying ests to buf and returns
// the extended slice.
func AppendResponse(buf []byte, ests []float64) []byte {
	buf = append(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ests)))
	for _, v := range ests {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// ResponseSize returns the encoded size of a response frame with n
// estimates — for pre-sizing pooled buffers.
func ResponseSize(n int) int { return headerSize + 8*n }

// DecodeResponse parses a response frame into a fresh slice.
func DecodeResponse(data []byte) ([]float64, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: truncated header (%d bytes)", ErrBadFrame, len(data))
	}
	if data[0] != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, data[0])
	}
	count := int(binary.LittleEndian.Uint32(data[1:5]))
	if len(data) != headerSize+8*count {
		return nil, fmt.Errorf("%w: %d estimates need %d bytes, frame has %d",
			ErrBadFrame, count, headerSize+8*count, len(data))
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[headerSize+8*i:]))
	}
	return out, nil
}

// maxPooledBuffer is the largest buffer a BufferPool keeps. A batch of 64
// probes is ~15 KB either way; without the bound one 1 MiB body would park
// 1 MiB in the pool for as long as it stays warm.
const maxPooledBuffer = 64 << 10

// BufferPool recycles byte buffers for frame encoding and request-body
// reads, counting gets, pool misses and oversize drops so servers can report
// a reuse rate.
type BufferPool struct {
	pool  sync.Pool
	gets  atomic.Uint64
	news  atomic.Uint64
	drops atomic.Uint64
}

// Get returns a zero-length buffer with whatever capacity the pool had on
// hand (possibly none).
func (p *BufferPool) Get() []byte {
	p.gets.Add(1)
	if b, ok := p.pool.Get().(*[]byte); ok {
		return (*b)[:0]
	}
	p.news.Add(1)
	return nil
}

// Put returns a buffer to the pool. Buffers that never grew are not worth
// keeping, and buffers above maxPooledBuffer are dropped (and counted) so a
// rare large frame does not stay resident.
func (p *BufferPool) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	if cap(b) > maxPooledBuffer {
		p.drops.Add(1)
		return
	}
	b = b[:0]
	p.pool.Put(&b)
}

// Stats reports total Get calls, how many missed the pool (allocated
// fresh), and how many buffers Put dropped as oversize. Reuse rate is
// (gets-misses)/gets.
func (p *BufferPool) Stats() (gets, misses, drops uint64) {
	return p.gets.Load(), p.news.Load(), p.drops.Load()
}

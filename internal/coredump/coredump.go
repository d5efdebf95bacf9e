// Package coredump implements post-mortem debugging, the third attach mode
// next to live (in-process) and remote (GDB RSP): the simulated kernel's
// memory image and symbol table serialize to a dump file, and a dump loads
// back into a read-only target — the moral equivalent of inspecting a
// kdump/vmcore with crash(8), which the paper lists among the state
// analysis tools Visualinux complements.
//
// Format (little-endian):
//
//	magic   "VLCORE01"
//	u32     segment count
//	per segment: u64 addr, u64 len, raw bytes
//	u32     symbol count
//	per symbol:  u16 name len, name, u64 addr, u16 type-name len, type name
//
// Types are NOT serialized: like GDB loading vmlinux for a vmcore, the
// reader reconstructs the type registry locally and re-binds symbols to it
// by name.
//
// Every count and length in the wire format is attacker-controlled, so Load
// validates all of them before allocating or looping: segment counts and
// total image bytes are capped, segment extents must be page-aligned and
// must not wrap the address space, and truncation anywhere mid-structure is
// an error, not a silent partial parse. All such failures wrap ErrCorrupt.
package coredump

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"visualinux/internal/ctypes"
	"visualinux/internal/mem"
	"visualinux/internal/target"
)

var magic = [8]byte{'V', 'L', 'C', 'O', 'R', 'E', '0', '1'}

// ErrCorrupt is wrapped by every Load failure caused by the dump itself —
// bad magic, implausible counts, unaligned or overflowing segments,
// truncation, trailing garbage. Callers distinguish "bad file" from I/O
// errors with errors.Is(err, ErrCorrupt).
var ErrCorrupt = errors.New("corrupt core dump")

// Wire-format sanity ceilings. The simulated kernels this package dumps are
// a few hundred KiB; the caps leave three orders of magnitude of headroom
// while keeping a hostile header from driving unbounded loops or
// allocations.
const (
	// MaxSegments bounds the u32 segment count.
	MaxSegments = 1 << 16
	// MaxImageBytes bounds the sum of all segment lengths (1 GiB).
	MaxImageBytes = 1 << 30
	// MaxSymbols bounds the u32 symbol count.
	MaxSymbols = 1 << 20
	// MaxFileBytes bounds a whole dump file: the header, MaxSegments
	// segment headers, MaxImageBytes of image, and a symbol table of up to
	// 64 bytes per symbol slot. Callers that read a dump into memory
	// before Load stop reading here.
	MaxFileBytes = 12 + MaxSegments*16 + MaxImageBytes + MaxSymbols*64
)

// Dump serializes the target's mapped memory and symbols to w. Contiguous
// pages coalesce into single segments.
//
// Dump is strictly read-only against the image: shared CoW pages are
// streamed straight from the page store via PageData (no un-aliasing, no
// private copies), and only private pages go through Mem.Read. A released
// ("zombie-readable") forked image still dumps its shared pages.
func Dump(t *target.Sim, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}

	// Coalesce mapped pages into segments.
	pages := t.Mem.MappedRanges()
	type seg struct{ addr, length uint64 }
	var segs []seg
	for _, base := range pages {
		if n := len(segs); n > 0 && segs[n-1].addr+segs[n-1].length == base {
			segs[n-1].length += mem.PageSize
		} else {
			segs = append(segs, seg{addr: base, length: mem.PageSize})
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(segs))); err != nil {
		return err
	}
	buf := make([]byte, mem.PageSize)
	for _, s := range segs {
		if err := binary.Write(bw, binary.LittleEndian, s.addr); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, s.length); err != nil {
			return err
		}
		for off := uint64(0); off < s.length; off += mem.PageSize {
			page := buf
			if data, ok := t.Mem.PageData(s.addr + off); ok {
				// Shared store page: alias the immutable backing directly.
				page = data
			} else if err := t.Mem.Read(s.addr+off, buf); err != nil {
				return fmt.Errorf("coredump: reading %#x: %w", s.addr+off, err)
			}
			if _, err := bw.Write(page); err != nil {
				return err
			}
		}
	}

	syms := t.Symbols()
	sort.Slice(syms, func(i, j int) bool { return syms[i].Name < syms[j].Name })
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(syms))); err != nil {
		return err
	}
	for _, s := range syms {
		typeName := ""
		if s.Type != nil {
			typeName = s.Type.String()
		}
		if err := writeString(bw, s.Name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, s.Addr); err != nil {
			return err
		}
		if err := writeString(bw, typeName); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// corruptf builds a Load error that wraps ErrCorrupt with context.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("coredump: "+format+": %w", append(args, ErrCorrupt)...)
}

// readFull reads exactly len(buf) bytes, mapping any shortfall (EOF,
// unexpected EOF) to a corrupt-dump error naming what was being read.
func readFull(r io.Reader, buf []byte, what string) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return corruptf("truncated %s", what)
		}
		return fmt.Errorf("coredump: reading %s: %w", what, err)
	}
	return nil
}

func readU16(r io.Reader, what string) (uint16, error) {
	var b [2]byte
	if err := readFull(r, b[:], what); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

func readU32(r io.Reader, what string) (uint32, error) {
	var b [4]byte
	if err := readFull(r, b[:], what); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func readU64(r io.Reader, what string) (uint64, error) {
	var b [8]byte
	if err := readFull(r, b[:], what); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Load reads a dump into a fresh read-only target, binding symbols against
// reg (the locally reconstructed "vmlinux" types). Symbols whose type
// names don't resolve keep a nil type, like stripped symbols.
//
// Load never trusts a wire-controlled count or length: see ErrCorrupt and
// the Max* caps. A structurally valid prefix followed by trailing garbage
// is also rejected — a dump is a complete artifact, not a stream.
func Load(r io.Reader, reg *ctypes.Registry) (*target.Sim, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if err := readFull(br, m[:], "magic"); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, corruptf("bad magic %q", m[:])
	}
	memory := mem.New()
	nsegs, err := readU32(br, "segment count")
	if err != nil {
		return nil, err
	}
	if nsegs > MaxSegments {
		return nil, corruptf("implausible segment count %d (max %d)", nsegs, MaxSegments)
	}
	var total uint64
	buf := make([]byte, mem.PageSize)
	for i := uint32(0); i < nsegs; i++ {
		addr, err := readU64(br, fmt.Sprintf("segment %d header", i))
		if err != nil {
			return nil, err
		}
		length, err := readU64(br, fmt.Sprintf("segment %d header", i))
		if err != nil {
			return nil, err
		}
		if length == 0 {
			return nil, corruptf("segment %d has zero length", i)
		}
		if length%mem.PageSize != 0 {
			return nil, corruptf("segment %d length %#x not page-aligned", i, length)
		}
		if addr%mem.PageSize != 0 {
			return nil, corruptf("segment %d addr %#x not page-aligned", i, addr)
		}
		if addr+length < addr {
			return nil, corruptf("segment %d [%#x,+%#x) wraps the address space", i, addr, length)
		}
		total += length
		if total > MaxImageBytes {
			return nil, corruptf("image exceeds %d bytes at segment %d", MaxImageBytes, i)
		}
		for off := uint64(0); off < length; off += mem.PageSize {
			if err := readFull(br, buf, fmt.Sprintf("segment %d data", i)); err != nil {
				return nil, err
			}
			memory.Write(addr+off, buf)
		}
	}
	tgt := target.NewSim(memory, reg)
	nsyms, err := readU32(br, "symbol count")
	if err != nil {
		return nil, err
	}
	if nsyms > MaxSymbols {
		return nil, corruptf("implausible symbol count %d (max %d)", nsyms, MaxSymbols)
	}
	for i := uint32(0); i < nsyms; i++ {
		name, err := readString(br, fmt.Sprintf("symbol %d name", i))
		if err != nil {
			return nil, err
		}
		if name == "" {
			return nil, corruptf("symbol %d has empty name", i)
		}
		addr, err := readU64(br, fmt.Sprintf("symbol %d addr", i))
		if err != nil {
			return nil, err
		}
		typeName, err := readString(br, fmt.Sprintf("symbol %d type name", i))
		if err != nil {
			return nil, err
		}
		var typ *ctypes.Type
		if typeName != "" {
			if t, ok := resolveTypeSpelling(reg, typeName); ok {
				typ = t
			} else if typeName == "func" {
				typ = ctypes.FuncType
			}
		}
		tgt.AddSymbol(name, addr, typ)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err != nil {
			return nil, fmt.Errorf("coredump: after symbol table: %w", err)
		}
		return nil, corruptf("trailing garbage after symbol table")
	}
	return tgt, nil
}

// resolveTypeSpelling parses the String() spelling of a type back into the
// registry: "task_struct", "struct rq[2]", "u64 *", "list_head".
func resolveTypeSpelling(reg *ctypes.Registry, s string) (*ctypes.Type, bool) {
	// Array suffix: "...[N]"
	if n := len(s); n > 0 && s[n-1] == ']' {
		open := -1
		for i := n - 2; i >= 0; i-- {
			if s[i] == '[' {
				open = i
				break
			}
		}
		if open > 0 {
			var count uint64
			if _, err := fmt.Sscanf(s[open+1:n-1], "%d", &count); err == nil {
				if elem, ok := resolveTypeSpelling(reg, s[:open]); ok {
					return elem.ArrayOf(count), true
				}
			}
		}
		return nil, false
	}
	return reg.Lookup(s)
}

func writeString(w io.Writer, s string) error {
	if len(s) > 0xFFFF {
		return fmt.Errorf("coredump: string too long (%d)", len(s))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w.(io.Writer), s)
	return err
}

func readString(r io.Reader, what string) (string, error) {
	n, err := readU16(r, what+" length")
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if err := readFull(r, buf, what); err != nil {
		return "", err
	}
	return string(buf), nil
}

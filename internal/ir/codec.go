package ir

// Versioned binary codec for routines. Since the arena refactor a
// routine is logically a handful of flat sequences — blocks, per-block
// instruction runs, operand id lists, successor edges — so the wire
// format simply serializes those sequences with varints. The format
// preserves instruction IDs, block IDs and names, parameter order and
// edge order (both the successor order and each edge's predecessor
// slot, which fixes φ-argument alignment), so Unmarshal(Marshal(r)) is
// structurally identical to r.
//
// Unmarshal validates every count, id and index against the declared
// bounds and returns an error on any malformed input; it never panics
// and never allocates more than a small constant factor of len(data).

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// CodecVersion is the current binary codec version. It participates in
// driver.Config.Fingerprint so cached analysis results never cross a
// representation change.
const CodecVersion = 1

// codecMagic guards against feeding arbitrary files to Unmarshal.
var codecMagic = [4]byte{'P', 'G', 'V', 'N'}

// ErrCodec is wrapped by every error returned from Unmarshal.
var ErrCodec = errors.New("ir: malformed codec data")

// Marshal encodes the routine in the versioned binary format.
func Marshal(r *Routine) []byte {
	return AppendMarshal(nil, r)
}

// AppendMarshal appends the encoding of r to dst and returns the
// extended slice, for callers batching several routines into one
// buffer.
func AppendMarshal(dst []byte, r *Routine) []byte {
	dst = append(dst, codecMagic[:]...)
	dst = binary.AppendUvarint(dst, CodecVersion)
	dst = appendString(dst, r.Name)
	dst = binary.AppendUvarint(dst, uint64(r.nextInstrID))
	dst = binary.AppendUvarint(dst, uint64(r.nextBlockID))
	dst = binary.AppendUvarint(dst, uint64(len(r.Blocks)))
	for _, b := range r.Blocks {
		dst = binary.AppendUvarint(dst, uint64(b.ID))
		dst = appendString(dst, b.Name)
		dst = binary.AppendUvarint(dst, uint64(len(b.Instrs)))
		for _, i := range b.Instrs {
			dst = binary.AppendUvarint(dst, uint64(i.ID))
			dst = append(dst, byte(i.Op))
			dst = appendString(dst, i.Name)
			dst = binary.AppendUvarint(dst, uint64(len(i.Args)))
			for _, a := range i.Args {
				if a == nil {
					dst = binary.AppendUvarint(dst, 0)
				} else {
					dst = binary.AppendUvarint(dst, uint64(a.ID)+1)
				}
			}
			if i.Op == OpConst {
				dst = binary.AppendVarint(dst, i.Const)
			}
			if i.Op == OpSwitch {
				dst = binary.AppendUvarint(dst, uint64(len(b.Cases)))
				for _, c := range b.Cases {
					dst = binary.AppendVarint(dst, c)
				}
			}
		}
	}
	// Edges: successor order per block, each edge carrying its
	// predecessor slot so the decoder reproduces φ alignment exactly.
	for _, b := range r.Blocks {
		dst = binary.AppendUvarint(dst, uint64(len(b.Preds)))
		dst = binary.AppendUvarint(dst, uint64(len(b.Succs)))
		for _, e := range b.Succs {
			dst = binary.AppendUvarint(dst, uint64(e.To.ID))
			dst = binary.AppendUvarint(dst, uint64(e.inIndex))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Params)))
	for _, p := range r.Params {
		dst = binary.AppendUvarint(dst, uint64(p.ID))
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decoder is a bounds-checked cursor over the encoded bytes. Methods
// record the first error and become no-ops after it, so call sites can
// stay linear and check once per structure.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: offset %d: %s", ErrCodec, d.off, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated or oversized varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated or oversized varint")
		return 0
	}
	d.off += n
	return v
}

// count reads a uvarint that counts items each occupying at least min
// encoded bytes, rejecting counts the remaining input cannot possibly
// hold. That bounds decoder allocation by O(len(data)) even for
// adversarial inputs.
func (d *decoder) count(min int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if rem := len(d.data) - d.off; v > uint64(rem/min+1) {
		d.fail("count %d exceeds remaining input", v)
		return 0
	}
	return int(v)
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.data) {
		d.fail("truncated input")
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

func (d *decoder) string() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	if d.off+n > len(d.data) {
		d.fail("truncated string of length %d", n)
		return ""
	}
	s := string(d.data[d.off : d.off+n])
	d.off += n
	return s
}

// Unmarshal decodes a routine encoded by Marshal. It returns an error
// wrapping ErrCodec on any malformed input; it never panics. The
// decoded routine preserves instruction and block IDs, names, edge
// order and parameter order, but is not semantically verified — run
// Routine.Verify for the structural invariants Unmarshal does not
// enforce (terminator placement, φ arity, and so on).
func Unmarshal(data []byte) (*Routine, error) {
	d := &decoder{data: data}
	if len(data) < len(codecMagic) || string(data[:len(codecMagic)]) != string(codecMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCodec)
	}
	d.off = len(codecMagic)
	if v := d.uvarint(); d.err == nil && v != CodecVersion {
		return nil, fmt.Errorf("%w: unsupported codec version %d (want %d)", ErrCodec, v, CodecVersion)
	}
	r := &Routine{Name: d.string()}
	nextInstr := d.uvarint()
	nextBlock := d.uvarint()
	const maxID = 1 << 30
	if d.err == nil && (nextInstr > maxID || nextBlock > maxID) {
		d.fail("id bound out of range")
	}
	numBlocks := d.count(2)
	if d.err != nil {
		return nil, d.err
	}
	r.nextInstrID = int(nextInstr)
	r.nextBlockID = int(nextBlock)
	if numBlocks == 0 || numBlocks > r.nextBlockID {
		return nil, fmt.Errorf("%w: block count %d outside [1, %d]", ErrCodec, numBlocks, r.nextBlockID)
	}

	// Pass 1: materialize blocks and instructions, building the id
	// lookups used to wire arguments, edges and params afterwards.
	// IDs are unique and bounded but need not be dense: deletion
	// leaves gaps.
	blockByID := make([]*Block, r.nextBlockID)
	instrByID := make([]*Instr, r.nextInstrID)
	type pendingArgs struct {
		instr *Instr
		ids   []uint64
	}
	var pend []pendingArgs
	r.Blocks = make([]*Block, 0, numBlocks)
	for bi := 0; bi < numBlocks && d.err == nil; bi++ {
		id := d.uvarint()
		if d.err != nil {
			break
		}
		if id >= uint64(r.nextBlockID) || blockByID[id] != nil {
			d.fail("block id %d out of range or duplicate", id)
			break
		}
		b := &Block{ID: int(id), Name: d.string(), Routine: r}
		blockByID[id] = b
		r.Blocks = append(r.Blocks, b)
		numInstrs := d.count(2)
		for ii := 0; ii < numInstrs && d.err == nil; ii++ {
			iid := d.uvarint()
			op := Op(d.byte())
			if d.err != nil {
				break
			}
			if iid >= uint64(r.nextInstrID) || instrByID[iid] != nil {
				d.fail("instr id %d out of range or duplicate", iid)
				break
			}
			if op == OpInvalid || op >= numOps {
				d.fail("invalid opcode %d", op)
				break
			}
			i := &Instr{ID: int(iid), Op: op, Block: b, Name: d.string()}
			instrByID[iid] = i
			b.Instrs = append(b.Instrs, i)
			if numArgs := d.count(1); numArgs > 0 {
				ids := make([]uint64, numArgs)
				for k := range ids {
					ids[k] = d.uvarint()
				}
				pend = append(pend, pendingArgs{i, ids})
			}
			if op == OpConst {
				i.Const = d.varint()
			}
			if op == OpSwitch {
				if numCases := d.count(1); numCases > 0 {
					b.Cases = make([]int64, numCases)
					for k := range b.Cases {
						b.Cases[k] = d.varint()
					}
				}
			}
		}
	}

	// Pass 2: wire arguments (forward references are legal) and use
	// lists, then hold every instruction to its opcode's arity — the
	// printer and the passes index Args by arity, so a decoded routine
	// must never understate it.
	for _, p := range pend {
		if d.err != nil {
			break
		}
		p.instr.Args = make([]*Instr, len(p.ids))
		for k, id := range p.ids {
			if id == 0 {
				continue // nil argument slot (unfilled φ input)
			}
			if id-1 >= uint64(r.nextInstrID) || instrByID[id-1] == nil {
				d.fail("arg reference to unknown instr id %d", id-1)
				break
			}
			a := instrByID[id-1]
			p.instr.Args[k] = a
			a.addUse(p.instr)
		}
	}
	if d.err == nil {
		for _, b := range r.Blocks {
			for _, i := range b.Instrs {
				if err := verifyArity(i); err != nil {
					d.fail("%v", err)
					break
				}
			}
		}
	}

	// Pass 3: edges. Decode every block's pred count and successor
	// tuples first (an edge may target a block whose pred count comes
	// later in the stream), then wire. Each encoded successor carries
	// its predecessor slot; slots must tile [0, numPreds) exactly
	// across the incoming edges, which the fill-then-check enforces.
	type pendingEdge struct {
		from   *Block
		toID   uint64
		inIdx  uint64
		outIdx int
	}
	var edges []pendingEdge
	for _, b := range r.Blocks {
		if d.err != nil {
			break
		}
		numPreds := d.count(1)
		numSuccs := d.count(2)
		if d.err != nil {
			break
		}
		b.Preds = make([]*Edge, numPreds)
		b.Succs = make([]*Edge, 0, numSuccs)
		for k := 0; k < numSuccs && d.err == nil; k++ {
			toID := d.uvarint()
			inIdx := d.uvarint()
			if d.err == nil {
				edges = append(edges, pendingEdge{from: b, toID: toID, inIdx: inIdx, outIdx: k})
			}
		}
	}
	for _, pe := range edges {
		if d.err != nil {
			break
		}
		if pe.toID >= uint64(r.nextBlockID) || blockByID[pe.toID] == nil {
			d.fail("edge to unknown block id %d", pe.toID)
			break
		}
		to := blockByID[pe.toID]
		if pe.inIdx >= uint64(len(to.Preds)) {
			d.fail("edge pred slot %d out of range for block %s", pe.inIdx, to.Name)
			break
		}
		if to.Preds[pe.inIdx] != nil {
			d.fail("duplicate pred slot %d in block %s", pe.inIdx, to.Name)
			break
		}
		e := &Edge{From: pe.from, To: to, outIndex: pe.outIdx, inIndex: int(pe.inIdx)}
		pe.from.Succs = append(pe.from.Succs, e)
		to.Preds[pe.inIdx] = e
	}
	if d.err == nil {
		for _, b := range r.Blocks {
			for k, e := range b.Preds {
				if e == nil {
					d.fail("block %s pred slot %d never filled", b.Name, k)
					break
				}
			}
		}
	}

	// Params.
	numParams := d.count(1)
	if d.err == nil && numParams > 0 {
		r.Params = make([]*Instr, 0, numParams)
		for k := 0; k < numParams; k++ {
			id := d.uvarint()
			if d.err != nil {
				break
			}
			if id >= uint64(r.nextInstrID) || instrByID[id] == nil || instrByID[id].Op != OpParam {
				d.fail("param reference to non-param instr id %d", id)
				break
			}
			r.Params = append(r.Params, instrByID[id])
		}
	}
	if d.err == nil && d.off != len(data) {
		d.fail("%d trailing bytes", len(data)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

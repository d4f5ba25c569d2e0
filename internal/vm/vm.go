// Package vm is an execution-driven multiprocessor simulator: a small
// register machine runs one program per CPU against a shared memory, and
// every instruction fetch, load, store, and atomic emits a trace
// reference. This is the style of tracing the paper names as its future
// work ("a multiprocessor simulator that builds on top of the VAX T-bit
// mechanism and can provide accurate simulated traces of a much larger
// number of processors") — where internal/workload synthesizes reference
// patterns statistically, vm derives them from real synchronization
// algorithms actually executing, with final memory state available as an
// end-to-end correctness check.
//
// The machine is deliberately tiny: eight registers, word-addressed
// memory, test-and-set as the only atomic. Programs are built with the
// Program builder (a label-resolving assembler).
package vm

import "fmt"

// Word is the machine word.
type Word int64

// NumRegs is the register-file size.
const NumRegs = 8

// Opcode enumerates the instruction set.
type Opcode uint8

const (
	// OpLdi loads an immediate: r[A] = Imm.
	OpLdi Opcode = iota
	// OpAdd: r[A] = r[B] + r[C].
	OpAdd
	// OpSub: r[A] = r[B] - r[C].
	OpSub
	// OpMul: r[A] = r[B] * r[C].
	OpMul
	// OpAnd: r[A] = r[B] & r[C].
	OpAnd
	// OpLd loads from memory: r[A] = mem[r[B] + Imm]. Emits a read.
	OpLd
	// OpSt stores to memory: mem[r[B] + Imm] = r[A]. Emits a write.
	OpSt
	// OpTas is test-and-set: r[A] = mem[r[B]+Imm]; mem[r[B]+Imm] = 1,
	// atomically. Emits a read then a write (flagged as an acquire).
	OpTas
	// OpFai is fetch-and-increment: r[A] = mem[r[B]+Imm]; mem[r[B]+Imm]++,
	// atomically. Emits a read then a write (flagged as an acquire).
	OpFai
	// OpBz branches to Imm when r[A] == 0.
	OpBz
	// OpBnz branches to Imm when r[A] != 0.
	OpBnz
	// OpJmp jumps to Imm.
	OpJmp
	// OpDone halts the CPU.
	OpDone
)

var opNames = map[Opcode]string{
	OpLdi: "ldi", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpAnd: "and",
	OpLd: "ld", OpSt: "st", OpTas: "tas", OpFai: "fai",
	OpBz: "bz", OpBnz: "bnz", OpJmp: "jmp", OpDone: "done",
}

// String returns the mnemonic.
func (o Opcode) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one instruction. A, B, C name registers; Imm is an immediate,
// address offset, or branch target depending on the opcode.
type Instr struct {
	Op      Opcode
	A, B, C uint8
	Imm     Word
}

// Program is an instruction sequence with label support.
type Program struct {
	Name   string
	Code   []Instr
	labels map[string]int
	// fixups records instructions whose Imm must be patched to a label.
	fixups map[int]string
}

// NewProgram returns an empty program.
func NewProgram(name string) *Program {
	return &Program{Name: name, labels: map[string]int{}, fixups: map[int]string{}}
}

// Label marks the next instruction's position.
func (p *Program) Label(name string) *Program {
	p.labels[name] = len(p.Code)
	return p
}

// emit appends an instruction.
func (p *Program) emit(i Instr) *Program {
	p.Code = append(p.Code, i)
	return p
}

// Ldi, Add, Sub, Mul, And, Ld, St, Tas and Fai append the corresponding
// instruction.
func (p *Program) Ldi(r uint8, v Word) *Program { return p.emit(Instr{Op: OpLdi, A: r, Imm: v}) }
func (p *Program) Add(dst, a, b uint8) *Program { return p.emit(Instr{Op: OpAdd, A: dst, B: a, C: b}) }
func (p *Program) Sub(dst, a, b uint8) *Program { return p.emit(Instr{Op: OpSub, A: dst, B: a, C: b}) }
func (p *Program) Mul(dst, a, b uint8) *Program { return p.emit(Instr{Op: OpMul, A: dst, B: a, C: b}) }
func (p *Program) And(dst, a, b uint8) *Program { return p.emit(Instr{Op: OpAnd, A: dst, B: a, C: b}) }
func (p *Program) Ld(dst, base uint8, off Word) *Program {
	return p.emit(Instr{Op: OpLd, A: dst, B: base, Imm: off})
}
func (p *Program) St(src, base uint8, off Word) *Program {
	return p.emit(Instr{Op: OpSt, A: src, B: base, Imm: off})
}
func (p *Program) Tas(dst, base uint8, off Word) *Program {
	return p.emit(Instr{Op: OpTas, A: dst, B: base, Imm: off})
}
func (p *Program) Fai(dst, base uint8, off Word) *Program {
	return p.emit(Instr{Op: OpFai, A: dst, B: base, Imm: off})
}

// Bz, Bnz and Jmp append branches to a label (resolved at Run time).
func (p *Program) Bz(r uint8, label string) *Program {
	p.fixups[len(p.Code)] = label
	return p.emit(Instr{Op: OpBz, A: r})
}
func (p *Program) Bnz(r uint8, label string) *Program {
	p.fixups[len(p.Code)] = label
	return p.emit(Instr{Op: OpBnz, A: r})
}
func (p *Program) Jmp(label string) *Program {
	p.fixups[len(p.Code)] = label
	return p.emit(Instr{Op: OpJmp})
}

// Done appends a halt.
func (p *Program) Done() *Program { return p.emit(Instr{Op: OpDone}) }

// link resolves label fixups. It returns an error for unknown labels.
func (p *Program) link() error {
	for pos, label := range p.fixups {
		target, ok := p.labels[label]
		if !ok {
			return fmt.Errorf("vm: program %q: undefined label %q", p.Name, label)
		}
		p.Code[pos].Imm = Word(target)
	}
	return nil
}

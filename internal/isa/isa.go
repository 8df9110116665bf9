// Package isa defines the instruction set simulated by the LBP machine:
// the RV32IM base integer instruction set plus the X_PAR (PISC) extension
// described in the paper "Deterministic OpenMP and the LBP Parallelizing
// Manycore Processor" (Figure 5).
//
// The package provides instruction opcodes, 32-bit binary encodings, a
// decoder and a disassembler. The encodings follow the standard RISC-V
// formats (R/I/S/B/U/J); X_PAR instructions live in the custom-0 (0001011)
// and custom-1 (0101011) major opcode spaces.
package isa

import "fmt"

// Op enumerates every instruction the machine understands, after decoding.
type Op uint8

// RV32I base instructions, RV32M multiply/divide extension, and the twelve
// X_PAR instructions of Figure 5.
const (
	OpInvalid Op = iota

	// RV32I
	OpLUI
	OpAUIPC
	OpJAL
	OpJALR
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU
	OpLB
	OpLH
	OpLW
	OpLBU
	OpLHU
	OpSB
	OpSH
	OpSW
	OpADDI
	OpSLTI
	OpSLTIU
	OpXORI
	OpORI
	OpANDI
	OpSLLI
	OpSRLI
	OpSRAI
	OpADD
	OpSUB
	OpSLL
	OpSLT
	OpSLTU
	OpXOR
	OpSRL
	OpSRA
	OpOR
	OpAND
	OpFENCE
	OpECALL
	OpEBREAK

	// RV32M
	OpMUL
	OpMULH
	OpMULHSU
	OpMULHU
	OpDIV
	OpDIVU
	OpREM
	OpREMU

	// X_PAR (PISC) extension, Figure 5 of the paper.
	OpPFC    // p_fc rd: allocate a free hart on the current core
	OpPFN    // p_fn rd: allocate a free hart on the next core
	OpPSET   // p_set rd, rs1: build a hart identity word
	OpPMERGE // p_merge rd, rs1, rs2: merge home and link hart identities
	OpPSYNCM // p_syncm: block fetch until in-flight memory accesses are done
	OpPJAL   // p_jal rd, rs1, off: call pc+off locally, send pc+4 to rs1 hart
	OpPJALR  // p_jalr rd, rs1, rs2: call rs2 locally, send pc+4 to rs1 hart;
	// with rd == x0 this is p_ret, the hart ending protocol
	OpPSWCV // p_swcv rs1, rs2, off: store rs2 on the rs1 hart stack at off
	OpPLWCV // p_lwcv rd, off: load rd from the local stack at off
	OpPSWRE // p_swre rs1, rs2, idx: send rs2 to rs1 hart result buffer idx
	OpPLWRE // p_lwre rd, idx: receive rd from local result buffer idx

	NumOps // sentinel
)

var opNames = [NumOps]string{
	OpInvalid: "invalid",
	OpLUI:     "lui", OpAUIPC: "auipc", OpJAL: "jal", OpJALR: "jalr",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge",
	OpBLTU: "bltu", OpBGEU: "bgeu",
	OpLB: "lb", OpLH: "lh", OpLW: "lw", OpLBU: "lbu", OpLHU: "lhu",
	OpSB: "sb", OpSH: "sh", OpSW: "sw",
	OpADDI: "addi", OpSLTI: "slti", OpSLTIU: "sltiu", OpXORI: "xori",
	OpORI: "ori", OpANDI: "andi", OpSLLI: "slli", OpSRLI: "srli",
	OpSRAI: "srai",
	OpADD:  "add", OpSUB: "sub", OpSLL: "sll", OpSLT: "slt", OpSLTU: "sltu",
	OpXOR: "xor", OpSRL: "srl", OpSRA: "sra", OpOR: "or", OpAND: "and",
	OpFENCE: "fence", OpECALL: "ecall", OpEBREAK: "ebreak",
	OpMUL: "mul", OpMULH: "mulh", OpMULHSU: "mulhsu", OpMULHU: "mulhu",
	OpDIV: "div", OpDIVU: "divu", OpREM: "rem", OpREMU: "remu",
	OpPFC: "p_fc", OpPFN: "p_fn", OpPSET: "p_set", OpPMERGE: "p_merge",
	OpPSYNCM: "p_syncm", OpPJAL: "p_jal", OpPJALR: "p_jalr",
	OpPSWCV: "p_swcv", OpPLWCV: "p_lwcv", OpPSWRE: "p_swre",
	OpPLWRE: "p_lwre",
}

// String returns the assembler mnemonic of the opcode.
func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Inst is a decoded instruction. Imm is sign-extended where the format
// calls for it.
type Inst struct {
	Op   Op
	Rd   uint8
	Rs1  uint8
	Rs2  uint8
	Imm  int32
	Raw  uint32 // original encoding, for diagnostics
	Addr uint32 // address the instruction was fetched from (filled by users)
}

// Class groups opcodes by the pipeline resources they use.
type Class uint8

const (
	ClassALU    Class = iota // 1-cycle integer operation
	ClassMul                 // multi-cycle multiply
	ClassDiv                 // multi-cycle divide/remainder
	ClassLoad                // memory read, result via the result buffer
	ClassStore               // memory write, no result
	ClassBranch              // conditional branch, resolves next pc
	ClassJump                // jal/jalr, writes rd and redirects fetch
	ClassSystem              // fence/ecall/ebreak/p_syncm
	ClassXPar                // X_PAR control instructions (fork, set, ...)
)

// ClassOf reports the pipeline class of an opcode.
func ClassOf(op Op) Class {
	switch op {
	case OpMUL, OpMULH, OpMULHSU, OpMULHU:
		return ClassMul
	case OpDIV, OpDIVU, OpREM, OpREMU:
		return ClassDiv
	case OpLB, OpLH, OpLW, OpLBU, OpLHU, OpPLWCV:
		return ClassLoad
	case OpSB, OpSH, OpSW, OpPSWCV, OpPSWRE:
		return ClassStore
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		return ClassBranch
	case OpJAL, OpJALR, OpPJAL, OpPJALR:
		return ClassJump
	case OpFENCE, OpECALL, OpEBREAK, OpPSYNCM:
		return ClassSystem
	case OpPFC, OpPFN, OpPSET, OpPMERGE, OpPLWRE:
		return ClassXPar
	default:
		return ClassALU
	}
}

// WritesRd reports whether the instruction produces a register result.
func (i *Inst) WritesRd() bool {
	if i.Rd == 0 {
		return false
	}
	switch ClassOf(i.Op) {
	case ClassStore, ClassBranch, ClassSystem:
		return false
	}
	return true
}

// ReadsRs1 reports whether rs1 is a source operand.
func (i *Inst) ReadsRs1() bool {
	switch i.Op {
	case OpLUI, OpAUIPC, OpJAL, OpPFC, OpPFN, OpPSYNCM, OpFENCE,
		OpECALL, OpEBREAK, OpPLWRE:
		return false
	case OpPLWCV:
		// p_lwcv loads relative to the implicit stack pointer (x2).
		return true
	}
	return true
}

// ReadsRs2 reports whether rs2 is a source operand.
func (i *Inst) ReadsRs2() bool {
	switch ClassOf(i.Op) {
	case ClassBranch, ClassStore:
		return true
	}
	switch i.Op {
	case OpADD, OpSUB, OpSLL, OpSLT, OpSLTU, OpXOR, OpSRL, OpSRA,
		OpOR, OpAND, OpMUL, OpMULH, OpMULHSU, OpMULHU, OpDIV, OpDIVU,
		OpREM, OpREMU, OpPMERGE, OpPJALR:
		return true
	}
	return false
}

// IsPRet reports whether the instruction is the p_ret form of p_jalr
// (rd == x0), which runs the hart ending protocol of Figure 6.
func (i *Inst) IsPRet() bool {
	return i.Op == OpPJALR && i.Rd == 0
}

// Register ABI names, indexed by register number.
var RegNames = [32]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// regByName indexes RegNames plus the frame-pointer alias "fp".
var regByName = func() map[string]uint8 {
	m := make(map[string]uint8, len(RegNames)+1)
	for i, n := range RegNames {
		m[n] = uint8(i)
	}
	m["fp"] = 8
	return m
}()

// RegByName maps an ABI or numeric register name to its number.
func RegByName(name string) (uint8, bool) {
	if r, ok := regByName[name]; ok {
		return r, true
	}
	if len(name) >= 2 && name[0] == 'x' {
		n := 0
		for _, c := range name[1:] {
			if c < '0' || c > '9' {
				return 0, false
			}
			if n = n*10 + int(c-'0'); n >= 32 {
				return 0, false
			}
		}
		return uint8(n), true
	}
	return 0, false
}

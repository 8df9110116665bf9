package cc

import "strings"

// Peephole optimization of the emitted body lines. Two conservative local
// rewrites remove the register-shuffling `mv` instructions the stack-based
// expression evaluator produces, bringing hot-loop instruction counts
// close to the paper's hand-counted kernels:
//
//  1. forward copy propagation:  "mv X, Y" followed (within a branchless
//     window in which Y is not redefined) by instructions reading X, the
//     last of which overwrites X -> the reads become reads of Y and the
//     mv disappears.
//  2. backward copy elimination: "op X, ..." directly followed by
//     "mv D, X" where X is dead afterwards -> "op D, ...".
//
// Both run only on straight-line code: any label or control transfer ends
// the analysis window.

// instLine is a parsed assembly line.
type instLine struct {
	raw  string
	mn   string
	ops  []string
	memB string // base register of a memory operand, "" if none
	dest string // destination register, "" if none
	ctl  bool   // mn ends a peephole window (controlMn)
}

func parseLine(l string) instLine {
	t := strings.TrimSpace(l)
	il := instLine{raw: l}
	if t == "" || strings.HasSuffix(t, ":") || strings.HasPrefix(t, ".") ||
		strings.HasPrefix(t, "#") {
		return il
	}
	mn, rest, _ := strings.Cut(t, " ")
	il.mn = mn
	il.ctl = controlMn[mn]
	il.ops = make([]string, 0, 3)
	for rest != "" {
		var f string
		f, rest, _ = strings.Cut(rest, ",")
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if open := strings.IndexByte(f, '('); open >= 0 && strings.HasSuffix(f, ")") {
			il.memB = f[open+1 : len(f)-1]
			il.ops = append(il.ops, f[:open])
			continue
		}
		il.ops = append(il.ops, f)
	}
	if writesDest(mn) && len(il.ops) > 0 {
		il.dest = il.ops[0]
	}
	return il
}

// control mnemonics that terminate a peephole window.
var controlMn = map[string]bool{
	"j": true, "jal": true, "jalr": true, "jr": true, "call": true,
	"ret": true, "p_ret": true, "p_jal": true, "p_jalr": true,
	"beq": true, "bne": true, "blt": true, "bge": true, "bltu": true,
	"bgeu": true, "bgt": true, "ble": true, "bgtu": true, "bleu": true,
	"beqz": true, "bnez": true, "bltz": true, "bgez": true, "blez": true,
	"bgtz": true, "ecall": true, "ebreak": true, "p_syncm": true,
}

// writesDest reports whether the mnemonic's first operand is a destination
// register.
func writesDest(mn string) bool {
	switch mn {
	case "sw", "sh", "sb", "p_swcv", "p_swre", "fence", "nop", "p_syncm":
		return false
	}
	if controlMn[mn] {
		return mn == "jal" || mn == "jalr" // write ra forms handled as barriers anyway
	}
	return true
}

// usesReg reports whether the line reads register r.
func (il *instLine) usesReg(r string) bool {
	if il.memB == r {
		return true
	}
	start := 0
	if il.dest != "" {
		start = 1
	}
	for i := start; i < len(il.ops); i++ {
		if il.ops[i] == r {
			return true
		}
	}
	// stores read their first operand too
	switch il.mn {
	case "sw", "sh", "sb":
		return len(il.ops) > 0 && il.ops[0] == r
	case "p_swcv", "p_swre":
		for _, o := range il.ops {
			if o == r {
				return true
			}
		}
	}
	return false
}

// substReg replaces reads of `from` with `to`, returning the new raw line.
func (il *instLine) substReg(from, to string) string {
	t := strings.TrimSpace(il.raw)
	mn, rest, _ := strings.Cut(t, " ")
	parts := strings.Split(rest, ",")
	dest := il.dest
	first := true
	for i := range parts {
		p := strings.TrimSpace(parts[i])
		isDest := first && dest != ""
		first = false
		switch {
		case strings.Contains(p, "(") && strings.HasSuffix(p, ")"):
			open := strings.IndexByte(p, '(')
			if p[open+1:len(p)-1] == from {
				p = p[:open+1] + to + ")"
			}
		case p == from && (!isDest || !writesDest(mn) || mn == "sw" || mn == "sh" || mn == "sb"):
			p = to
		}
		parts[i] = p
	}
	return "\t" + mn + " " + strings.Join(parts, ", ")
}

const peepholeWindow = 16

// isTempReg reports whether r is an expression temp (single-use values).
func isTempReg(r string) bool {
	for _, t := range tempRegs {
		if t == r {
			return true
		}
	}
	return r == scratch
}

// peephole applies the two rewrites until a fixed point (bounded). Each
// line is parsed once; a pass re-parses only the lines it rewrites.
func peephole(lines []string) []string {
	cur := make([]instLine, len(lines))
	for i, l := range lines {
		cur[i] = parseLine(l)
	}
	next := make([]instLine, 0, len(lines)) // passes only ever shrink the body
	for pass := 0; pass < 4; pass++ {
		var changed bool
		next, changed = peepholeOnce(next[:0], cur)
		cur, next = next, cur
		if !changed {
			break
		}
	}
	out := make([]string, len(cur))
	for i := range cur {
		out[i] = cur[i].raw
	}
	return out
}

// peepholeOnce appends one rewritten pass over parsed to out.
func peepholeOnce(out, parsed []instLine) ([]instLine, bool) {
	changed := false
	for i := 0; i < len(parsed); i++ {
		il := &parsed[i]
		// rewrite 1: forward copy propagation of "mv X, Y"
		if il.mn == "mv" && len(il.ops) == 2 && isTempReg(il.ops[0]) {
			x, y := il.ops[0], il.ops[1]
			n := len(out)
			var ok bool
			if out, ok = tryForwardProp(out, parsed, i, x, y); ok {
				i += len(out) - n // consumed i+1 .. i+len(out)-n
				changed = true
				continue
			}
		}
		// rewrite 2: "op X, ..." ; "mv D, X" with X dead after
		if d := il.dest; d != "" && isTempReg(d) && i+1 < len(parsed) {
			nx := &parsed[i+1]
			// sources are read before the destination is written, so the
			// destination may alias a source of il. A statement boundary
			// only proves d dead when the copy lands outside the temp set
			// (temp-to-temp copies — dupTop — keep d live as a stack entry).
			if nx.mn == "mv" && len(nx.ops) == 2 && nx.ops[1] == d && nx.ops[0] != d &&
				deadAfter(parsed, i+2, d, !isTempReg(nx.ops[0])) {
				out = append(out, parseLine(il.substDest(nx.ops[0])))
				i++ // skip the mv
				changed = true
				continue
			}
		}
		out = append(out, *il)
	}
	return out, changed
}

// substDest rewrites the destination register of the line.
func (il *instLine) substDest(to string) string {
	t := strings.TrimSpace(il.raw)
	mn, rest, _ := strings.Cut(t, " ")
	parts := strings.Split(rest, ",")
	if len(parts) == 0 {
		return il.raw
	}
	from := strings.TrimSpace(parts[0])
	parts[0] = to
	// same register may appear as a source; keep sources intact
	for i := 1; i < len(parts); i++ {
		parts[i] = strings.TrimSpace(parts[i])
	}
	_ = from
	return "\t" + mn + " " + strings.Join(parts, ", ")
}

// deadAfter reports whether temp register r is dead in the window
// starting at index i. When allowBoundary is set, a label or control
// transfer (after its own register reads) counts as death — valid only
// when the caller knows r cannot be a live expression-stack entry there.
func deadAfter(parsed []instLine, i int, r string, allowBoundary bool) bool {
	for j := i; j < len(parsed) && j < i+peepholeWindow; j++ {
		il := parsed[j]
		if il.usesReg(r) {
			return false // branches and calls read their sources first
		}
		if il.mn == "" || il.ctl {
			return allowBoundary
		}
		if il.dest == r {
			return true
		}
	}
	return false
}

// tryForwardProp attempts rewrite 1 at the mv on index i. On success it
// appends the replacement lines covering indexes i+1..end (mv removed)
// to out; on failure it returns out unchanged.
func tryForwardProp(out, parsed []instLine, i int, x, y string) ([]instLine, bool) {
	n := len(out)
	for j := i + 1; j < len(parsed) && j <= i+peepholeWindow; j++ {
		il := &parsed[j]
		if il.mn == "" {
			return out[:n], false // label: conservative (x may be live-in there)
		}
		uses := il.usesReg(x)
		if il.ctl && !uses {
			// x may carry a live value across the transfer (the
			// ?:/&&/|| value patterns do exactly that): keep the copy
			return out[:n], false
		}
		if uses {
			out = append(out, parseLine(il.substReg(x, y)))
		} else {
			out = append(out, *il)
		}
		if il.ctl {
			// the control instruction consumes x (substituted above); a
			// consumed temp is dead past its branch
			return out, true
		}
		if il.dest == x {
			return out, true // x redefined: the copy is fully propagated
		}
		if il.dest == y {
			return out[:n], false // y changes while x still live
		}
	}
	return out[:n], false
}

package isa

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"cimrev/internal/packet"
)

// Assembly grammar, one instruction per line ('#' starts a comment):
//
//	configure <b/t/u> <function>
//	loadweights <b/t/u> <rows> <cols> <v0,v1,...>
//	connect <b/t/u> <b/t/u>
//	stream <b/t/u> <v0,v1,...>
//	barrier
//	halt

// Assemble parses assembly text into a validated Program.
func Assemble(src string) (Program, error) {
	var p Program
	sc := bufio.NewScanner(strings.NewReader(src))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		in, err := assembleLine(fields)
		if err != nil {
			return nil, fmt.Errorf("isa: line %d: %w", lineNo, err)
		}
		p = append(p, in)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("isa: read source: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func assembleLine(fields []string) (Instruction, error) {
	var in Instruction
	switch fields[0] {
	case "configure":
		if len(fields) != 3 {
			return in, fmt.Errorf("configure wants 2 operands, got %d", len(fields)-1)
		}
		addr, err := packet.ParseAddress(fields[1])
		if err != nil {
			return in, err
		}
		fn, err := ParseFunction(fields[2])
		if err != nil {
			return in, err
		}
		in = Instruction{Op: OpConfigure, Unit: addr, Fn: fn}
	case "loadweights":
		if len(fields) != 5 {
			return in, fmt.Errorf("loadweights wants 4 operands, got %d", len(fields)-1)
		}
		addr, err := packet.ParseAddress(fields[1])
		if err != nil {
			return in, err
		}
		rows, err := strconv.Atoi(fields[2])
		if err != nil {
			return in, fmt.Errorf("rows: %w", err)
		}
		cols, err := strconv.Atoi(fields[3])
		if err != nil {
			return in, fmt.Errorf("cols: %w", err)
		}
		data, err := parseFloats(fields[4])
		if err != nil {
			return in, err
		}
		in = Instruction{Op: OpLoadWeights, Unit: addr, Rows: rows, Cols: cols, Data: data}
	case "connect":
		if len(fields) != 3 {
			return in, fmt.Errorf("connect wants 2 operands, got %d", len(fields)-1)
		}
		src, err := packet.ParseAddress(fields[1])
		if err != nil {
			return in, err
		}
		dst, err := packet.ParseAddress(fields[2])
		if err != nil {
			return in, err
		}
		in = Instruction{Op: OpConnect, Unit: src, Unit2: dst}
	case "stream":
		if len(fields) != 3 {
			return in, fmt.Errorf("stream wants 2 operands, got %d", len(fields)-1)
		}
		addr, err := packet.ParseAddress(fields[1])
		if err != nil {
			return in, err
		}
		data, err := parseFloats(fields[2])
		if err != nil {
			return in, err
		}
		in = Instruction{Op: OpStream, Unit: addr, Data: data}
	case "barrier":
		in = Instruction{Op: OpBarrier}
	case "halt":
		in = Instruction{Op: OpHalt}
	default:
		return in, fmt.Errorf("unknown mnemonic %q", fields[0])
	}
	return in, in.Validate()
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("value %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// Disassemble renders the program in assembly form; Assemble(Disassemble(p))
// reproduces p.
func (p Program) Disassemble() string {
	var b strings.Builder
	for _, in := range p {
		switch in.Op {
		case OpConfigure:
			fmt.Fprintf(&b, "configure %s %s\n", in.Unit, in.Fn)
		case OpLoadWeights:
			fmt.Fprintf(&b, "loadweights %s %d %d %s\n", in.Unit, in.Rows, in.Cols, formatFloats(in.Data))
		case OpConnect:
			fmt.Fprintf(&b, "connect %s %s\n", in.Unit, in.Unit2)
		case OpStream:
			fmt.Fprintf(&b, "stream %s %s\n", in.Unit, formatFloats(in.Data))
		case OpBarrier:
			b.WriteString("barrier\n")
		case OpHalt:
			b.WriteString("halt\n")
		default:
			fmt.Fprintf(&b, "# unknown op %d\n", in.Op)
		}
	}
	return b.String()
}

func formatFloats(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

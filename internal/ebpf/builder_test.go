package ebpf

import (
	"strings"
	"testing"
)

func TestBuilderResolvesForwardAndBackwardLabels(t *testing.T) {
	b := NewBuilder("loop", ProgTypeXDP)
	b.Ins(Mov64Imm(R0, 0), Mov64Imm(R2, 5))
	b.Label("loop")
	b.Ins(Add64Imm(R0, 2), Insn{Op: OpSubImm, Dst: R2, Imm: 1})
	b.Jmp(Insn{Op: OpJneImm, Dst: R2, Imm: 0, Off: 0}, "loop")
	b.Jmp(Insn{Op: OpJa, Off: 0}, "out")
	b.Ins(Mov64Imm(R0, 999)) // dead
	b.Label("out")
	b.Ins(Exit())
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel()
	res, err := loadAndRun(t, k, p, nil)
	if err != nil || res.Ret != 10 {
		t.Fatalf("got %d, %v; want 10", res.Ret, err)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad", ProgTypeXDP)
	b.Jmp(Insn{Op: OpJa, Off: 0}, "nowhere")
	b.Ins(Mov64Imm(R0, 0), Exit())
	if _, err := b.Program(); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Fatalf("want undefined label error, got %v", err)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("bad", ProgTypeXDP)
	b.Label("x")
	b.Ins(Mov64Imm(R0, 0))
	b.Label("x")
	b.Ins(Exit())
	if _, err := b.Program(); err == nil || !strings.Contains(err.Error(), "duplicate label") {
		t.Fatalf("want duplicate label error, got %v", err)
	}
}

func TestBuilderNonJumpInJmp(t *testing.T) {
	b := NewBuilder("bad", ProgTypeXDP)
	b.Jmp(Mov64Imm(R0, 0), "x")
	b.Label("x")
	b.Ins(Exit())
	if _, err := b.Program(); err == nil || !strings.Contains(err.Error(), "non-jump") {
		t.Fatalf("want non-jump error, got %v", err)
	}
}

func TestBuilderMustProgramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustProgram must panic on bad assembly")
		}
	}()
	b := NewBuilder("bad", ProgTypeXDP)
	b.Jmp(Insn{Op: OpJa, Off: 0}, "nowhere")
	b.MustProgram()
}

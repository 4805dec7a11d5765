package ebpf

// Assembler helpers: thin constructors that make hand-written programs
// (SPROXY, EPROXY, tests) readable. They mirror the clang/libbpf mnemonics.

// Mov64Imm: dst = imm.
func Mov64Imm(dst Register, imm int64) Insn { return Insn{Op: OpMovImm, Dst: dst, Imm: imm} }

// Mov64Reg: dst = src.
func Mov64Reg(dst, src Register) Insn { return Insn{Op: OpMovReg, Dst: dst, Src: src} }

// Add64Imm: dst += imm.
func Add64Imm(dst Register, imm int64) Insn { return Insn{Op: OpAddImm, Dst: dst, Imm: imm} }

// Or64Reg: dst |= src.
func Or64Reg(dst, src Register) Insn { return Insn{Op: OpOrReg, Dst: dst, Src: src} }

// Lsh64Imm: dst <<= imm.
func Lsh64Imm(dst Register, imm int64) Insn { return Insn{Op: OpLshImm, Dst: dst, Imm: imm} }

// LoadMem: dst = *(size*)(src+off).
func LoadMem(dst, src Register, off int16, size Size) Insn {
	return Insn{Op: OpLoad, Dst: dst, Src: src, Off: off, Size: size}
}

// StoreMem: *(size*)(dst+off) = src.
func StoreMem(dst Register, off int16, src Register, size Size) Insn {
	return Insn{Op: OpStore, Dst: dst, Src: src, Off: off, Size: size}
}

// StoreImm: *(size*)(dst+off) = imm.
func StoreImm(dst Register, off int16, imm int64, size Size) Insn {
	return Insn{Op: OpStoreImm, Dst: dst, Off: off, Imm: imm, Size: size}
}

// AtomicAdd: lock *(size*)(dst+off) += src.
func AtomicAdd(dst Register, off int16, src Register, size Size) Insn {
	return Insn{Op: OpAtomicAdd, Dst: dst, Src: src, Off: off, Size: size}
}

// LoadMapFD: dst = handle of the map with file descriptor fd.
func LoadMapFD(dst Register, fd int) Insn {
	return Insn{Op: OpLoadMapFD, Dst: dst, Imm: int64(fd)}
}

// JeqImm: if dst == imm goto +off.
func JeqImm(dst Register, imm int64, off int16) Insn {
	return Insn{Op: OpJeqImm, Dst: dst, Imm: imm, Off: off}
}

// JgtReg: if dst > src goto +off (unsigned).
func JgtReg(dst, src Register, off int16) Insn {
	return Insn{Op: OpJgtReg, Dst: dst, Src: src, Off: off}
}

// Call invokes helper id.
func Call(id HelperID) Insn { return Insn{Op: OpCall, Imm: int64(id)} }

// Exit returns R0 to the hook.
func Exit() Insn { return Insn{Op: OpExit} }

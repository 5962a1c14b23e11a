"""Two-pass MIPS assembler.

Supports the full ISA of Figure 7 plus:

* labels, ``.text`` / ``.data`` / ``.org`` / ``.word`` / ``.byte`` /
  ``.half`` / ``.float`` / ``.space`` / ``.align`` / ``.asciiz``;
* register names (``$zero``, ``$t0``, ``$f12``, numeric ``$5``);
* pseudo-instructions: ``li``, ``la``, ``move``, ``nop``, ``b``,
  ``blt``, ``bge`` (via ``slt`` + branch with ``$at``), ``not``,
  ``subi`` and 32-bit ``li`` expansion via ``lui``/``ori``.

The output :class:`Executable` maps word addresses to memory words plus
the symbol table -- loadable into both the ISS and the Sapper processor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.mips import softfloat
from repro.mips.isa import ENCODINGS, Instruction, encode

GPR_NAMES = {
    "zero": 0, "at": 1, "v0": 2, "v1": 3,
    "a0": 4, "a1": 5, "a2": 6, "a3": 7,
    "t0": 8, "t1": 9, "t2": 10, "t3": 11, "t4": 12, "t5": 13, "t6": 14, "t7": 15,
    "s0": 16, "s1": 17, "s2": 18, "s3": 19, "s4": 20, "s5": 21, "s6": 22, "s7": 23,
    "t8": 24, "t9": 25, "k0": 26, "k1": 27,
    "gp": 28, "sp": 29, "fp": 30, "s8": 30, "ra": 31,
}


class AsmError(ValueError):
    """Assembly failure with source-line context."""


@dataclass
class Executable:
    """Assembled program image."""

    words: dict[int, int]                 # word address -> 32-bit value
    symbols: dict[str, int]               # label -> byte address
    entry: int = 0

    def as_memory(self) -> dict[int, int]:
        """Copy of the image keyed by word address (for simulators)."""
        return dict(self.words)


def parse_reg(token: str, line: str) -> int:
    token = token.strip()
    if not token.startswith("$"):
        raise AsmError(f"expected register, got {token!r} in: {line}")
    name = token[1:]
    if name.isdigit():
        n = int(name)
        if n > 31:
            raise AsmError(f"bad register {token!r} in: {line}")
        return n
    if name in GPR_NAMES:
        return GPR_NAMES[name]
    raise AsmError(f"unknown register {token!r} in: {line}")


def parse_freg(token: str, line: str) -> int:
    token = token.strip()
    match = re.fullmatch(r"\$f(\d+)", token)
    if not match or int(match.group(1)) > 31:
        raise AsmError(f"expected FP register, got {token!r} in: {line}")
    return int(match.group(1))


class _Assembler:
    def __init__(self, source: str, origin: int):
        self.source = source
        self.origin = origin
        self.symbols: dict[str, int] = {}
        self.words: dict[int, int] = {}

    # -- helpers --------------------------------------------------------------

    def value(self, token: str, line: str, pc: int = 0) -> int:
        token = token.strip()
        try:
            if token.startswith("%hi(") and token.endswith(")"):
                return self.value(token[4:-1], line) >> 16 & 0xFFFF
            if token.startswith("%lo(") and token.endswith(")"):
                return self.value(token[4:-1], line) & 0xFFFF
            if re.fullmatch(r"-?0[xX][0-9a-fA-F]+|-?\d+", token):
                return int(token, 0)
            if token in self.symbols:
                return self.symbols[token]
        except AsmError:
            raise
        raise AsmError(f"cannot resolve {token!r} in: {line}")

    # -- pass 1: layout ---------------------------------------------------------

    def _clean_lines(self) -> list[tuple[str, str]]:
        """Return (label-stripped statement, original line) pairs with
        labels recorded lazily in pass 1 via sentinels."""
        out = []
        for raw in self.source.splitlines():
            line = raw.split("#")[0].split("//")[0].strip()
            if not line:
                continue
            while ":" in line.split('"')[0]:
                label, _, rest = line.partition(":")
                out.append((f"LABEL {label.strip()}", raw))
                line = rest.strip()
                if not line:
                    break
            if line:
                out.append((line, raw))
        return out

    def _statement_size(self, stmt: str, addr: int) -> int:
        """Size in bytes that *stmt* occupies at *addr* (pass 1)."""
        op, _, rest = stmt.partition(" ")
        op = op.lower()
        args = [a.strip() for a in rest.split(",")] if rest.strip() else []
        if op == ".org" or op == "label" or op == ".text" or op == ".data":
            return 0
        if op == ".word" or op == ".float":
            return 4 * len(args)
        if op == ".half":
            return ((2 * len(args)) + 3) & ~3
        if op == ".byte":
            return (len(args) + 3) & ~3
        if op == ".space":
            return (int(args[0], 0) + 3) & ~3
        if op == ".align":
            k = 1 << int(args[0], 0)
            return (-addr) % k
        if op == ".asciiz":
            text = stmt.partition(" ")[2].strip()
            body = text[1:-1].encode().decode("unicode_escape")
            return (len(body) + 1 + 3) & ~3
        # instructions (pseudo expansion sizes)
        if op == "li":
            return 8  # conservatively lui+ori (kept fixed for layout)
        if op == "la":
            return 8
        if op in ("blt", "bge", "bgtu", "bltu"):
            return 8
        return 4

    def assemble(self) -> Executable:
        lines = self._clean_lines()
        # pass 1: addresses
        addr = self.origin
        for stmt, _raw in lines:
            if stmt.startswith("LABEL "):
                self.symbols[stmt[6:]] = addr
                continue
            if stmt.split()[0] == ".org":
                addr = int(stmt.split()[1], 0)
                continue
            addr += self._statement_size(stmt, addr)
        # pass 2: encode
        addr = self.origin
        for stmt, raw in lines:
            if stmt.startswith("LABEL "):
                continue
            head = stmt.split()[0]
            if head == ".org":
                addr = int(stmt.split()[1], 0)
                continue
            addr = self._emit(stmt, raw, addr)
        return Executable(self.words, dict(self.symbols), entry=self.origin)

    # -- pass 2: emission ---------------------------------------------------------

    def _store_word(self, addr: int, value: int) -> None:
        self.words[addr >> 2] = value & 0xFFFFFFFF

    def _store_bytes(self, addr: int, data: bytes) -> int:
        for i, byte in enumerate(data):
            a = addr + i
            word = self.words.get(a >> 2, 0)
            shift = (a & 3) * 8  # little-endian byte order
            word = (word & ~(0xFF << shift)) | (byte << shift)
            self.words[a >> 2] = word
        return (addr + len(data) + 3) & ~3

    def _emit(self, stmt: str, raw: str, addr: int) -> int:
        op, _, rest = stmt.partition(" ")
        op_l = op.lower()
        args = [a.strip() for a in rest.split(",")] if rest.strip() else []
        if op_l in (".text", ".data"):
            return addr
        if op_l == ".word":
            for a in args:
                self._store_word(addr, self.value(a, raw))
                addr += 4
            return addr
        if op_l == ".float":
            for a in args:
                self._store_word(addr, softfloat.from_python(float(a)))
                addr += 4
            return addr
        if op_l == ".half":
            data = b"".join(
                (self.value(a, raw) & 0xFFFF).to_bytes(2, "little") for a in args
            )
            return self._store_bytes(addr, data)
        if op_l == ".byte":
            data = bytes(self.value(a, raw) & 0xFF for a in args)
            return self._store_bytes(addr, data)
        if op_l == ".space":
            return addr + ((int(args[0], 0) + 3) & ~3)
        if op_l == ".align":
            k = 1 << int(args[0], 0)
            return addr + ((-addr) % k)
        if op_l == ".asciiz":
            text = stmt.partition(" ")[2].strip()
            body = text[1:-1].encode().decode("unicode_escape").encode() + b"\x00"
            return self._store_bytes(addr, body)
        for word in self._encode_instruction(op_l, args, raw, addr):
            self._store_word(addr, word)
            addr += 4
        return addr

    def _branch_off(self, target: str, raw: str, addr: int) -> int:
        dest = self.value(target, raw)
        off = (dest - (addr + 4)) >> 2
        if not -32768 <= off <= 32767:
            raise AsmError(f"branch out of range in: {raw}")
        return off & 0xFFFF

    def _encode_instruction(self, op: str, args: list[str], raw: str, addr: int) -> list[int]:
        enc = encode
        ins = Instruction
        # pseudo-instructions first
        if op == "nop":
            return [0]
        if op == "li":
            rt = parse_reg(args[0], raw)
            value = self.value(args[1], raw) & 0xFFFFFFFF
            return [
                enc(ins("lui", rt=rt, imm=value >> 16)),
                enc(ins("ori", rs=rt, rt=rt, imm=value & 0xFFFF)),
            ]
        if op == "la":
            rt = parse_reg(args[0], raw)
            value = self.value(args[1], raw) & 0xFFFFFFFF
            return [
                enc(ins("lui", rt=rt, imm=value >> 16)),
                enc(ins("ori", rs=rt, rt=rt, imm=value & 0xFFFF)),
            ]
        if op == "move":
            return [enc(ins("addu", rs=parse_reg(args[1], raw), rt=0, rd=parse_reg(args[0], raw)))]
        if op == "not":
            return [enc(ins("nor", rs=parse_reg(args[1], raw), rt=0, rd=parse_reg(args[0], raw)))]
        if op == "b":
            return [enc(ins("beq", rs=0, rt=0, imm=self._branch_off(args[0], raw, addr)))]
        if op == "blt":  # blt rs, rt, label == slt $at, rs, rt; bne $at, $0
            rs, rt = parse_reg(args[0], raw), parse_reg(args[1], raw)
            return [
                enc(ins("slt", rs=rs, rt=rt, rd=1)),
                enc(ins("bne", rs=1, rt=0, imm=self._branch_off(args[2], raw, addr + 4))),
            ]
        if op == "bge":
            rs, rt = parse_reg(args[0], raw), parse_reg(args[1], raw)
            return [
                enc(ins("slt", rs=rs, rt=rt, rd=1)),
                enc(ins("beq", rs=1, rt=0, imm=self._branch_off(args[2], raw, addr + 4))),
            ]
        if op not in ENCODINGS:
            raise AsmError(f"unknown instruction {op!r} in: {raw}")
        fmt = ENCODINGS[op][0]
        if fmt == "R":
            if op in ("sll", "srl", "sra"):
                return [enc(ins(op, rt=parse_reg(args[1], raw), rd=parse_reg(args[0], raw),
                                shamt=self.value(args[2], raw) & 31))]
            if op in ("sllv", "srlv", "srav"):
                return [enc(ins(op, rd=parse_reg(args[0], raw), rt=parse_reg(args[1], raw),
                                rs=parse_reg(args[2], raw)))]
            if op in ("mult", "multu", "div"):
                return [enc(ins(op, rs=parse_reg(args[0], raw), rt=parse_reg(args[1], raw)))]
            if op == "jr":
                return [enc(ins(op, rs=parse_reg(args[0], raw)))]
            if op == "jalr":
                if len(args) == 1:
                    return [enc(ins(op, rs=parse_reg(args[0], raw), rd=31))]
                return [enc(ins(op, rd=parse_reg(args[0], raw), rs=parse_reg(args[1], raw)))]
            if op in ("mflo", "mfhi"):
                return [enc(ins(op, rd=parse_reg(args[0], raw)))]
            return [enc(ins(op, rd=parse_reg(args[0], raw), rs=parse_reg(args[1], raw),
                            rt=parse_reg(args[2], raw)))]
        if fmt == "I":
            if op in ("beq", "bne", "bgt", "ble", "beql", "bnel", "blel"):
                return [enc(ins(op, rs=parse_reg(args[0], raw), rt=parse_reg(args[1], raw),
                                imm=self._branch_off(args[2], raw, addr)))]
            if op in ("lb", "lbu", "lhu", "lw", "sb", "sh", "sw", "lwl", "lwr", "swl", "swr"):
                rt = parse_reg(args[0], raw)
                offset, base = self._mem_operand(args[1], raw)
                return [enc(ins(op, rs=base, rt=rt, imm=offset & 0xFFFF))]
            if op in ("lwc1", "swc1"):
                ft = parse_freg(args[0], raw)
                offset, base = self._mem_operand(args[1], raw)
                return [enc(ins(op, rs=base, rt=ft, imm=offset & 0xFFFF))]
            if op == "lui":
                rt = parse_reg(args[0], raw)
                return [enc(ins(op, rt=rt, imm=self.value(args[1], raw) & 0xFFFF))]
            return [enc(ins(op, rt=parse_reg(args[0], raw), rs=parse_reg(args[1], raw),
                            imm=self.value(args[2], raw) & 0xFFFF))]
        if fmt == "RI":
            rs = parse_reg(args[0], raw)
            return [enc(ins(op, rs=rs, imm=self._branch_off(args[1], raw, addr)))]
        if fmt == "J":
            return [enc(ins(op, target=(self.value(args[0], raw) >> 2) & 0x3FFFFFF))]
        if fmt in ("F", "FW"):
            fregs = [parse_freg(a, raw) for a in args]
            if op in ("le.s", "lt.s", "ge.s", "gt.s"):
                return [enc(ins(op, rs=fregs[0], rt=fregs[1]))]
            if op in ("abs.s", "mov.s", "neg.s", "cvt.s.w", "cvt.w.s"):
                return [enc(ins(op, rd=fregs[0], rs=fregs[1]))]
            return [enc(ins(op, rd=fregs[0], rs=fregs[1], rt=fregs[2]))]
        if fmt == "FB":
            return [enc(ins(op, imm=self._branch_off(args[0], raw, addr)))]
        if fmt == "MV":
            return [enc(ins(op, rt=parse_reg(args[0], raw), rs=parse_freg(args[1], raw)))]
        if fmt == "SEC":
            if op == "setrtimer":
                return [enc(ins(op, rs=parse_reg(args[0], raw)))]
            return [enc(ins(op, rs=parse_reg(args[0], raw), rt=parse_reg(args[1], raw)))]
        raise AsmError(f"unhandled format for {op!r} in: {raw}")

    def _mem_operand(self, token: str, raw: str) -> tuple[int, int]:
        match = re.fullmatch(r"(.*)\((\$\w+)\)", token.strip())
        if not match:
            raise AsmError(f"bad memory operand {token!r} in: {raw}")
        offset = self.value(match.group(1), raw) if match.group(1).strip() else 0
        return offset, parse_reg(match.group(2), raw)


def assemble(source: str, origin: int = 0x400) -> Executable:
    """Assemble *source* starting at byte address *origin*."""
    return _Assembler(source, origin).assemble()

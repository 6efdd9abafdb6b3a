"""Pass 2: wire-codec symmetry.

The protocol codec in src/net/message.cpp is hand-written encode/decode
pairs; nothing but round-trip tests enforces that both sides agree. This
pass pairs the two switches mechanically:

  * every `net::MessageType` enum member appears in the encode switch,
    the decode switch, and to_string();
  * per type, the ordered sequence of codec operations matches in kind
    (u8/u16/u32/u64/i32/f64/string/string_list/count/unit) — an
    encoded-but-not-decoded field, a dropped field, or a width change on
    one side only is a finding;
  * where both sides name the field (`m.foo` / `u.foo` / `d.foo`), the
    names must match — catches reordered fields whose widths happen to
    line up;
  * the put_unit/take_unit sub-codec gets the same treatment;
  * every field of Message / WireUnitDescription / WireUnitDone is
    referenced by both the encoder and the decoder (no silently dead
    wire fields).
"""

from __future__ import annotations

import re

from . import Finding
from .source import Index, SourceFile, line_of, match_brace, match_paren

PASS = "codec"

HEADER_FILE = "include/pa/net/message.h"
IMPL_FILE = "src/net/message.cpp"

ENC_OP_RE = re.compile(
    r"\bput_(u8|u16|u32|u64|i32|f64|string_list|string|unit)\s*\(")
DEC_OP_RE = re.compile(
    r"\.take<\s*(?:std::)?(\w+)\s*>\s*\(|\.take_string_list\s*\(|"
    r"\.take_string\s*\(|\btake_unit\s*\(|\btake_batch_count\s*\(")
CASE_RE = re.compile(r"\bcase\s+MessageType::k(\w+)\s*:")
ENUM_MEMBER_RE = re.compile(r"\bk(\w+)\s*=\s*(\d+)")
FIELD_NAME_RE = re.compile(r"\b[mudw]\.(\w+)")

TAKE_KIND = {
    "uint8_t": "u8", "uint16_t": "u16", "uint32_t": "u32",
    "uint64_t": "u64", "int8_t": "i8", "int16_t": "i16",
    "int32_t": "i32", "int64_t": "i64", "double": "f64", "float": "f32",
}


def func_body(code: str, signature: str) -> tuple[int, int] | None:
    """(open_brace_idx, close_brace_idx) of the first definition whose
    signature matches `signature` (a regex anchored at the return type, so
    call sites don't match)."""
    m = re.search(signature, code)
    if m is None:
        return None
    open_idx = code.find("{", m.end() - 1)
    if open_idx < 0:
        return None
    return open_idx, match_brace(code, open_idx)


def encode_ops(code: str, start: int, end: int):
    """Ordered (kind, field_name_or_None, line) ops in a region of the
    encoder. A put_u32 of `.size()` is the batch-count pseudo-op."""
    ops = []
    for m in ENC_OP_RE.finditer(code, start, end):
        kind = m.group(1)
        close = match_paren(code, code.find("(", m.end() - 1))
        args = code[m.end():close]
        name_m = FIELD_NAME_RE.search(args)
        name = name_m.group(1) if name_m else None
        if kind == "u32" and ".size()" in args.replace(" ", "").replace(
                "\n", ""):
            kind = "count"
        ops.append((kind, name, line_of(code, m.start())))
    return ops


def decode_ops(code: str, start: int, end: int):
    """Ordered (kind, field_name_or_None, line) ops in a region of the
    decoder. The assigned field is read off the statement prefix
    (`m.foo = c.take...`)."""
    ops = []
    for m in DEC_OP_RE.finditer(code, start, end):
        text = m.group(0)
        if m.group(1):
            kind = TAKE_KIND.get(m.group(1), m.group(1))
        elif "take_string_list" in text:
            kind = "string_list"
        elif "take_string" in text:
            kind = "string"
        elif "take_unit" in text:
            kind = "unit"
        else:
            kind = "count"
        stmt = max(code.rfind(";", start, m.start()),
                   code.rfind("{", start, m.start()),
                   code.rfind("}", start, m.start()),
                   start - 1)
        prefix = code[stmt + 1:m.start()]
        name_m = FIELD_NAME_RE.search(prefix)
        name = name_m.group(1) if name_m else None
        ops.append((kind, name, line_of(code, m.start())))
    return ops


def split_cases(code: str, sw_start: int, sw_end: int):
    """Case groups of one switch body: [(type_names, body_start,
    body_end, line)], with stacked labels sharing one body."""
    labels = [(m.group(1), m.start(), m.end())
              for m in CASE_RE.finditer(code, sw_start, sw_end)]
    groups = []
    i = 0
    while i < len(labels):
        names = [labels[i][0]]
        j = i
        while (j + 1 < len(labels)
               and code[labels[j][2]:labels[j + 1][1]].strip() == ""):
            j += 1
            names.append(labels[j][0])
        body_start = labels[j][2]
        body_end = labels[j + 1][1] if j + 1 < len(labels) else sw_end
        groups.append((names, body_start, body_end,
                       line_of(code, labels[i][1])))
        i = j + 1
    return groups


def switch_region(code: str, body: tuple[int, int],
                  scrutinee: str) -> tuple[int, int] | None:
    m = re.search(r"\bswitch\s*\(\s*" + re.escape(scrutinee) + r"\s*\)\s*\{",
                  code[body[0]:body[1]])
    if m is None:
        return None
    open_idx = body[0] + m.end() - 1
    return open_idx, match_brace(code, open_idx)


def parse_enum(sf: SourceFile):
    """name -> value from the MessageType enum."""
    m = re.search(r"enum\s+class\s+MessageType[^{]*\{", sf.code)
    if m is None:
        return None
    end = match_brace(sf.code, m.end() - 1)
    out = {em.group(1): int(em.group(2))
           for em in ENUM_MEMBER_RE.finditer(sf.code, m.end(), end)}
    return out or None


def struct_fields(sf: SourceFile, name: str) -> list[str]:
    m = re.search(r"\bstruct\s+" + re.escape(name) + r"\s*\{", sf.code)
    if m is None:
        return []
    end = match_brace(sf.code, m.end() - 1)
    fields = []
    for line in sf.code[m.end():end].split("\n"):
        if "(" in line or ")" in line:
            continue
        fm = re.match(r"\s*[\w:]+(?:<[^;>]*>)?[&*\s]+(\w+)\s*(?:=[^;]*)?;",
                      line)
        if fm:
            fields.append(fm.group(1))
    return fields


def type_set(code: str, body: tuple[int, int]) -> set[str]:
    return set(re.findall(r"MessageType::k(\w+)",
                          code[body[0]:body[1]]))


def compare_ops(rel: str, label: str, enc, dec,
                findings: list[Finding]) -> None:
    n = min(len(enc), len(dec))
    for i in range(n):
        ek, en, el = enc[i]
        dk, dn, dl = dec[i]
        ename = f" (`{en}`)" if en else ""
        dname = f" (`{dn}`)" if dn else ""
        if ek != dk:
            findings.append(Finding(
                rel, dl, PASS,
                f"{label}: field #{i + 1} is encoded as {ek}{ename} but "
                f"decoded as {dk}{dname} — width or order mismatch"))
            return
        if en and dn and en != dn:
            findings.append(Finding(
                rel, dl, PASS,
                f"{label}: field #{i + 1} encodes `{en}` but decodes into "
                f"`{dn}` — fields reordered or mispaired"))
            return
    if len(enc) > len(dec):
        k, nm, ln = enc[n]
        findings.append(Finding(
            rel, ln, PASS,
            f"{label}: {len(enc) - n} encoded field(s) never decoded, "
            f"starting with {k}" + (f" `{nm}`" if nm else "") +
            " — the decoder will see them as trailing bytes"))
    elif len(dec) > len(enc):
        k, nm, ln = dec[n]
        findings.append(Finding(
            rel, ln, PASS,
            f"{label}: decoder reads {len(dec) - n} field(s) the encoder "
            f"never writes, starting with {k}" +
            (f" `{nm}`" if nm else "") + " — decode will throw on every "
            "well-formed frame"))


def run(index: Index) -> list[Finding]:
    findings: list[Finding] = []
    header = index.get(HEADER_FILE)
    impl = index.get(IMPL_FILE)
    if header is None or impl is None:
        for rel, sf in ((HEADER_FILE, header), (IMPL_FILE, impl)):
            if sf is None:
                findings.append(Finding(rel, 1, PASS,
                                        "codec source missing"))
        return findings
    enum = parse_enum(header)
    if not enum:
        findings.append(Finding(HEADER_FILE, 1, PASS,
                                "could not parse the MessageType enum"))
        return findings

    code = impl.code
    enc_body = func_body(code, r"\bvoid\s+encode_message_into\s*\(")
    dec_body = func_body(code, r"\bMessage\s+decode_message\s*\(")
    if enc_body is None or dec_body is None:
        findings.append(Finding(
            IMPL_FILE, 1, PASS,
            "encode_message_into / decode_message definitions not found"))
        return findings

    # --- per-type op symmetry -------------------------------------------
    enc_sw = switch_region(code, enc_body, "m.type")
    dec_sw = switch_region(code, dec_body, "m.type")
    if enc_sw is None or dec_sw is None:
        findings.append(Finding(IMPL_FILE, line_of(code, enc_body[0]), PASS,
                                "switch (m.type) not found in the codec"))
        return findings

    def case_map(sw):
        out = {}
        for names, bs, be, line in split_cases(code, sw[0] + 1, sw[1]):
            for name in names:
                out[name] = (bs, be, line)
        return out

    enc_cases = case_map(enc_sw)
    dec_cases = case_map(dec_sw)

    for side, cases in (("encode", enc_cases), ("decode", dec_cases)):
        for name, (_, _, line) in sorted(cases.items()):
            if name not in enum:
                findings.append(Finding(
                    IMPL_FILE, line, PASS,
                    f"{side} switch handles MessageType::k{name}, which "
                    f"the enum does not declare"))
        for name in sorted(enum):
            if name not in cases:
                findings.append(Finding(
                    IMPL_FILE, line_of(code, (enc_sw if side == "encode"
                                              else dec_sw)[0]), PASS,
                    f"MessageType::k{name} has no case in the {side} "
                    f"switch — frames of that type cannot be "
                    f"{'sent' if side == 'encode' else 'received'}"))

    for name in sorted(set(enc_cases) & set(dec_cases) & set(enum)):
        ebs, ebe, _ = enc_cases[name]
        dbs, dbe, _ = dec_cases[name]
        compare_ops(IMPL_FILE, f"k{name}",
                    encode_ops(code, ebs, ebe),
                    decode_ops(code, dbs, dbe), findings)

    # --- header symmetry (ops before each switch) -----------------------
    compare_ops(IMPL_FILE, "message header",
                encode_ops(code, enc_body[0], enc_sw[0]),
                decode_ops(code, dec_body[0], dec_sw[0]), findings)

    # --- put_unit / take_unit sub-codec ---------------------------------
    pu = func_body(code, r"\bvoid\s+put_unit\s*\(")
    tu = func_body(code, r"\bWireUnitDescription\s+take_unit\s*\(")
    if pu and tu:
        compare_ops(IMPL_FILE, "WireUnitDescription",
                    encode_ops(code, pu[0], pu[1]),
                    decode_ops(code, tu[0], tu[1]), findings)

    # --- to_string coverage ---------------------------------------------
    ts = func_body(code, r"\bconst\s+char\s*\*\s*to_string\s*\(")
    if ts:
        covered = type_set(code, ts)
        for name in sorted(set(enum) - covered):
            findings.append(Finding(
                IMPL_FILE, line_of(code, ts[0]), PASS,
                f"to_string() has no case for MessageType::k{name}"))

    # --- struct-field coverage ------------------------------------------
    enc_text = code[enc_body[0]:enc_body[1]]
    dec_text = code[dec_body[0]:dec_body[1]]
    checks = [("Message", r"\bm\.(\w+)", enc_text, dec_text)]
    if pu and tu:
        checks.append(("WireUnitDescription", r"\bu\.(\w+)",
                       code[pu[0]:pu[1]], code[tu[0]:tu[1]]))
    checks.append(("WireUnitDone", r"\bd\.(\w+)", enc_text, dec_text))
    for struct, pat, etext, dtext in checks:
        fields = struct_fields(header, struct)
        if not fields:
            continue
        enc_names = set(re.findall(pat, etext))
        dec_names = set(re.findall(pat, dtext))
        for f in fields:
            if f not in enc_names:
                findings.append(Finding(
                    HEADER_FILE, 1, PASS,
                    f"{struct}::{f} is never encoded — dead wire field "
                    f"or a forgotten put"))
            if f not in dec_names:
                findings.append(Finding(
                    HEADER_FILE, 1, PASS,
                    f"{struct}::{f} is never decoded — receivers drop it "
                    f"silently"))
    return findings

"""Report assembly and deterministic rendering (human tables / key=value),
and the base class of the engines' refusals."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__


class Refusal(Exception):
    """An engine declines to compute: the input lies where its result
    would not be reliable (a contraction threshold, a parameter budget, a
    chart not in normal form).  The CLI exits 2 on it.  Each subclass
    keeps ValueError or RuntimeError as its second base for library
    callers."""


def fmt(value) -> str:
    """Deterministic value formatting for reports."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return "%.12g" % value
    if isinstance(value, complex):
        return "%.12g%+.12gi" % (value.real, value.imag)
    return str(value)


@dataclass
class Section:
    title: str
    rows: list = field(default_factory=list)   # (key, value) pairs

    def add(self, key, value):
        self.rows.append((str(key), fmt(value)))

    def kv_lines(self, prefix):
        """One `prefix + key=value` line per row, spaces in keys as '_'."""
        return [f"{prefix}{k.replace(' ', '_')}={v}" for k, v in self.rows]


@dataclass
class Report:
    tool: str
    seed: int
    input_digest: str
    version: str = __version__
    sections: list = field(default_factory=list)
    hypothesis_notes: list = field(default_factory=list)

    def section(self, title) -> Section:
        s = Section(title)
        self.sections.append(s)
        return s

    def note(self, text):
        if text not in self.hypothesis_notes:
            self.hypothesis_notes.append(text)

    def render(self, format="human") -> str:
        if format == "kv":
            return self.render_kv()
        return self.render_human()

    def render_human(self) -> str:
        out = []
        out.append(f"# conedeform {self.version} :: {self.tool}")
        out.append(f"seed = {self.seed}")
        out.append(f"input sha256 = {self.input_digest}")
        for s in self.sections:
            out.append("")
            out.append(f"[{s.title}]")
            width = max((len(k) for k, _ in s.rows), default=0)
            for k, v in s.rows:
                out.append(f"  {k.ljust(width)}  {v}")
        if self.hypothesis_notes:
            out.append("")
            out.append("[hypothesis notes]")
            for n in self.hypothesis_notes:
                out.append(f"  - {n}")
        out.append("")
        return "\n".join(out)

    def render_kv(self) -> str:
        out = []
        out.append(f"tool={self.tool}")
        out.append(f"version={self.version}")
        out.append(f"seed={self.seed}")
        out.append(f"input_digest={self.input_digest}")
        for s in self.sections:
            out.extend(s.kv_lines(s.title.replace(" ", "_") + "."))
        for i, n in enumerate(self.hypothesis_notes):
            out.append(f"note.{i}={n}")
        out.append("")
        return "\n".join(out)


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]

"""Run reports for the command line checks.

A report is a plain dict rendered either as JSON (sorted keys, fixed
indentation) or as a tab separated table, so identical inputs and seeds
yield identical bytes.  TSV writes each backslash, tab, CR and LF of the
command and input paths as a backslash and one of backslash, t, r, n.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\r": "\\r",
                              "\n": "\\n"})


class RunReport:
    def __init__(self, command: str, seed: Optional[int] = None):
        self.command = command
        self.seed = seed
        self.inputs: list[dict] = []
        self.checks: list[dict] = []
        self.result: Optional[dict] = None

    def add_input(self, path: str, data: bytes):
        self.inputs.append({
            "path": path,
            "sha256": hashlib.sha256(data).hexdigest(),
        })

    def add_check(self, name: str, ok: bool, witness=None):
        entry = {"name": name, "status": "pass" if ok else "fail"}
        if not ok:
            entry["witness"] = witness if witness is not None else {}
        self.checks.append(entry)

    @property
    def exit_code(self) -> int:
        return 0 if all(c["status"] == "pass" for c in self.checks) else 1

    def to_obj(self) -> dict:
        obj = {
            "command": self.command,
            "inputs": self.inputs,
            "checks": self.checks,
            "exitCode": self.exit_code,
        }
        if self.seed is not None:
            obj["seed"] = self.seed
        if self.result is not None:
            obj["result"] = self.result
        return obj

    def render(self, fmt: str = "json") -> str:
        if fmt == "json":
            return json.dumps(self.to_obj(), sort_keys=True, indent=2) + "\n"
        if fmt == "tsv":
            lines = [f"# command\t{self.command.translate(_TSV_ESCAPES)}"]
            for entry in self.inputs:
                path = entry["path"].translate(_TSV_ESCAPES)
                lines.append(f"# input\t{path}\t{entry['sha256']}")
            if self.seed is not None:
                lines.append(f"# seed\t{self.seed}")
            for check in self.checks:
                witness = check.get("witness")
                tail = json.dumps(witness, sort_keys=True) if witness is not None else ""
                lines.append(f"{check['name']}\t{check['status']}\t{tail}")
            if self.result is not None:
                lines.append("# result\t" + json.dumps(self.result, sort_keys=True))
            lines.append(f"# exit\t{self.exit_code}")
            return "\n".join(lines) + "\n"
        raise ValueError(f"unknown format {fmt!r}")

"""Error hierarchy shared by the library and the CLI.

Each error class maps to one process exit code so the CLI can translate
failures without inspecting messages: domain errors exit 1, resource-budget
errors exit 2.  A failed oracle check is a report, not an error; the CLI
exits 3 when one of its reports says `fail`.
"""

from __future__ import annotations

from typing import Any


class ZeroleakError(Exception):
    """Base class; carries a machine-readable code and a detail payload."""

    exit_code = 1

    def __init__(self, code: str, message: str, detail: dict[str, Any] | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.detail = dict(detail) if detail else {}

    def to_obj(self) -> dict[str, Any]:
        return {"error": {"code": self.code, "message": self.message, "detail": self.detail}}


class DomainError(ZeroleakError):
    """Invalid input: malformed graph, out-of-range vertex, bad weights, ..."""

    exit_code = 1


class ResourceBudgetError(ZeroleakError):
    """An enumeration or search exceeded its work budget."""

    exit_code = 2

    def __init__(self, budget_name: str, limit: int, message: str | None = None):
        text = message or f"{budget_name} budget of {limit} exceeded"
        super().__init__("budget_exceeded", text, {"budget": budget_name, "limit": limit})
        self.budget_name = budget_name
        self.limit = limit


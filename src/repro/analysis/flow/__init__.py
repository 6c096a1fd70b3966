"""obiflow: whole-program interprocedural analysis under obilint.

The per-module rules (OBI102, OBI107, OBI108, OBI306) see one file at
a time; the flow layer sees the project.  It is built in three stages, each consuming the one
before:

1. :mod:`~repro.analysis.flow.symbols` — a project-wide symbol table:
   every module-level function, class, and method, plus per-class lock
   attributes and light attribute-type inference (``self.endpoint =
   endpoint`` with an annotated parameter, ``self.x = ClassName(...)``);
2. :mod:`~repro.analysis.flow.callgraph` — a call graph over those
   symbols, resolving ``self.method()``, imported functions, constructor
   calls, typed-attribute dispatch (``self.endpoint.invoke`` →
   ``RmiEndpoint.invoke``) and, for names unique in the project,
   bound-method dispatch by name;
3. the analyses — :mod:`~repro.analysis.flow.locks` (held-lock
   summaries, blocking-call propagation), :mod:`~repro.analysis.flow.guarded`
   (which ``self.`` fields each lock owns) and
   :mod:`~repro.analysis.flow.protocol` (the paper's get/demand/put
   replica lifecycle).

The rules themselves (OBI202–205, OBI209, OBI210) live in
:mod:`~repro.analysis.flow.rules` and register through the ordinary
``rules/`` catalog; they share one :class:`~repro.analysis.flow.project.Project`
per engine run through the project-rule cache.
"""

from repro.analysis.flow.project import Project

__all__ = ["Project"]

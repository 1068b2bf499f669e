"""Failure-aware multiparty session protocols: surface language, local type
checking with timeouts and reliability sets, decidable property checks over a
typing-context transition system, and a fault-injecting process simulator."""

from .diagnostics import Diagnostic, MagpiError, Span
from .types import (BASIC_KINDS, Basic, Branch, BranchArm, BufEntry,
                    CongruenceMode, END, Rec, RecRef, Reliability, Select,
                    SelectArm, SessionBufferType, SessionType, Type, UNIT,
                    buffer_type_congruent, format_session, format_type,
                    type_classes, type_equal, validate_session)
from .parser import (ProcDecl, ProtocolFile, parse, parse_process_text,
                     parse_session_text)
from .pretty import pretty
from .context import (TypeContext, context_key, end_predicate, render_context,
                      split_end_gc)
from .lts import (ComAct, Exceeded, ExploreLimits, LtsGraph, SendAct,
                  TimeoutAct, context_transitions, explore, export_lts)
from .verify import (HOLDS, INCONCLUSIVE, VIOLATED, Verdict, check_bound_k,
                     check_bounded, check_comm_safe_RF, check_deadlock_free,
                     check_live, check_never_terminating, check_safety,
                     check_tcp_safety, check_terminating)
# The function `typecheck` is not re-exported: `magpi.typecheck` is the
# submodule.
from .typecheck import TypingReport, typecheck_file
from .sim import (Config, FailureScenario, MonitorViolation, Step, Trace,
                  TraceEvent, enabled_steps, monitor_corollaries, run)

__version__ = "0.1.0"

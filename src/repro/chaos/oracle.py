"""The output oracle: a sequential single-copy SCADA master.

It judges a run by the system's outputs alone and shares no code with it
(the standard library only; plain fields compared by equality). It reads
replicas' ``execution_listeners`` (one total order, an update at one
index), endpoints' ``_on_verified_record`` (a record is acted on once), a
proxy's ``ModbusPoller.write_coil`` (a breaker write spends one ordered
command) and, post-run, each up replica's state: it equals this master's
replay of the order to the replica's executed count, so a rejuvenated
replica that replayed from a checkpoint passes.
"""

from collections import Counter
from functools import partial
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = ["Oracle"]


class Oracle:
    name = "oracle"

    def __init__(self, now: Callable[[], float]) -> None:
        self.now = now
        self.order: Dict[int, Tuple[str, int, Any]] = {}  # index -> (client, seq, payload)
        self.ordered_at: List[float] = []  # when each index was first executed
        self.findings: List[Tuple[str, float, Dict[str, Any]]] = []  # (kind, at, details)
        self.executions_checked = 0
        self._index_of: Dict[Tuple[str, int], int] = {}
        self._duplicates: set = set()  # (client, client_seq, second index) flagged
        self._divergent: set = set()  # replicas that left the order: no replay judges them
        self._acted: set = set()  # (endpoint, record key) acted on
        self._unspent: Counter = Counter()  # ordered (substation, breaker, close)

    def _flag(self, kind: str, **details: Any) -> None:
        self.findings.append((kind, self.now(), details))

    def watch(self, replicas: Sequence[Any], endpoints: Sequence[Any] = ()) -> None:
        """Read what ``replicas`` execute and what ``endpoints`` act on and write."""
        for replica in replicas:
            replica.execution_listeners.append(partial(self._executed, replica.name))
        for endpoint in endpoints:
            endpoint._on_verified_record = partial(
                self._verified, endpoint.name, endpoint._on_verified_record)
            if hasattr(endpoint, "poller"):
                self.watch_field(endpoint.poller)

    def watch_field(self, poller: Any) -> None:
        """Read the breaker writes a Modbus master sends to the field."""
        poller.write_coil = partial(self._written, poller.owner.name, poller.write_coil)

    def _executed(self, replica: str, update: Any, index: int, result: Any) -> None:
        self.executions_checked += 1
        client, seq, payload = entry = (update.client, update.client_seq, update.payload)
        first = self.order.setdefault(index, entry)
        if first is entry:
            self.ordered_at.append(self.now())
            if hasattr(payload, "breaker_id"):
                self._unspent[payload.substation, payload.breaker_id, payload.close] += 1
        elif first != entry:
            self._divergent.add(replica)
            self._flag("divergent-execution", replica=replica, order_index=index,
                       client=client, client_seq=seq)
        seen = self._index_of.setdefault((client, seq), index)
        if seen != index and (client, seq, index) not in self._duplicates:
            self._duplicates.add((client, seq, index))
            self._flag("duplicate-execution", replica=replica, first_index=seen,
                       second_index=index, client=client, client_seq=seq)

    def _verified(self, endpoint: str, act: Callable[[Any], None], record: Any) -> None:
        key = (endpoint, record.kind, record.client, record.client_seq)
        if key in self._acted:
            self._flag("duplicate-delivery", endpoint=endpoint,
                       client=record.client, client_seq=record.client_seq)
        self._acted.add(key)
        act(record)

    def _written(self, endpoint: str, write: Callable, substation, breaker_id, close) -> bool:
        wrote = write(substation, breaker_id, close)
        if wrote and self._unspent[substation, breaker_id, close]:
            self._unspent[substation, breaker_id, close] -= 1
        elif wrote:
            self._flag("ungated-field-command", endpoint=endpoint,
                       substation=substation, breaker=breaker_id)
        return wrote

    def check_states(self, replicas: Sequence[Any]) -> None:
        """Replay the order once, comparing each judged replica's state at its
        executed count; on a ``LoggingApp`` the state is its log."""
        log, status, intent, counts = [], {}, {}, [0, 0, 0]  # counts: applied, commands, stale
        judged = [r for r in replicas if r.is_up and r.name not in self._divergent
                  and not getattr(r, "awaiting_state", False)]
        for replica in sorted(judged, key=lambda r: r.executed_counter):
            for index in range(len(log) + 1, replica.executed_counter + 1):
                client, seq, payload = self.order[index]
                log.append((index, client, seq, payload))
                if hasattr(payload, "breaker_id"):
                    intent[payload.substation, payload.breaker_id] = payload.close
                    counts[1] += 1
                elif hasattr(payload, "poll_seq"):
                    held = status.get(payload.substation)
                    fresh = held is None or held.poll_seq < payload.poll_seq
                    status[payload.substation] = payload if fresh else held
                    counts[0 if fresh else 2] += 1
            app = replica.app
            state = app.log if hasattr(app, "log") else (app.latest_status, app.breaker_intent, [
                app.status_updates_applied, app.commands_applied, app.stale_updates_dropped])
            if state != (log if hasattr(app, "log") else (status, intent, counts)):
                self._flag("double-execution", replica=replica.name,
                           executed=replica.executed_counter)

"""Job search: metadata filters plus up to three metric search fields.

§IV-B: *"Jobs may be browsed by date, or searched along any
combination of metadata and up to three Search fields, where a Search
field consists of one of the metric names from Table I plus a
modifying suffix to indicate the comparison operator to use against a
threshold value entered in the Value field."*

The three-field limit is enforced (it is part of the interface being
reproduced); programmatic users who need more go straight to the ORM,
exactly as §V-B does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.db.queryset import QuerySet
from repro.metrics.table1 import METRIC_REGISTRY
from repro.pipeline.records import JobRecord

#: operator suffixes the Value field accepts
SUFFIXES = ("gt", "gte", "lt", "lte", "exact", "ne")


@dataclass(frozen=True)
class SearchField:
    """One metric comparison, e.g. ``MetaDataRate__gt = 10000``."""

    metric: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.metric not in METRIC_REGISTRY:
            raise ValueError(
                f"unknown metric {self.metric!r}; "
                f"valid names are the Table I metrics"
            )
        if self.op not in SUFFIXES:
            raise ValueError(
                f"unknown operator suffix {self.op!r}; valid: {SUFFIXES}"
            )

    @classmethod
    def parse(cls, spec: str, value: float) -> "SearchField":
        """Parse ``"MetaDataRate__gt"`` + threshold into a SearchField."""
        metric, _, op = spec.partition("__")
        return cls(metric=metric, op=op or "exact", value=float(value))

    def lookup(self) -> dict:
        key = self.metric if self.op == "exact" else f"{self.metric}__{self.op}"
        return {key: self.value}


@dataclass
class JobSearch:
    """A portal query: metadata constraints plus ≤3 search fields."""

    user: Optional[str] = None
    executable: Optional[str] = None  # substring match, like the portal
    queue: Optional[str] = None
    status: Optional[str] = None
    jobid: Optional[str] = None
    start_after: Optional[int] = None  # epoch seconds
    start_before: Optional[int] = None
    min_run_time: Optional[int] = None
    nodes_min: Optional[int] = None
    fields: Sequence[SearchField] = ()

    MAX_FIELDS = 3

    def queryset(self) -> QuerySet:
        """Compile to a QuerySet over the job table."""
        if len(self.fields) > self.MAX_FIELDS:
            raise ValueError(
                f"the portal accepts at most {self.MAX_FIELDS} search "
                f"fields; use the ORM directly for more (§V-B)"
            )
        qs = JobRecord.objects.all()
        if self.user is not None:
            qs = qs.filter(user=self.user)
        if self.executable is not None:
            qs = qs.filter(executable__contains=self.executable)
        if self.queue is not None:
            qs = qs.filter(queue=self.queue)
        if self.status is not None:
            qs = qs.filter(status=self.status)
        if self.jobid is not None:
            qs = qs.filter(jobid=self.jobid)
        if self.start_after is not None:
            qs = qs.filter(start_time__gte=self.start_after)
        if self.start_before is not None:
            qs = qs.filter(start_time__lt=self.start_before)
        if self.min_run_time is not None:
            qs = qs.filter(run_time__gt=self.min_run_time)
        if self.nodes_min is not None:
            qs = qs.filter(nodes__gte=self.nodes_min)
        for f in self.fields:
            qs = qs.filter(**f.lookup())
        return qs

    def _newest_first(self) -> QuerySet:
        """The matches, newest first.  When no indexed filter (``user``,
        ``queue``, ``jobid``, a start window, a metric field) narrows
        the search, SQLite would walk ``idx_job_start_time`` and look up
        every row of the table to test the rest; ``+start_time`` makes
        it scan the table and sort the matches instead, and ``id DESC``
        breaks ties as the walk did.  An indexed filter keeps
        ``start_time DESC`` and the plan that filter's index gives."""
        qs = self.queryset()
        if self.fields or any(
            v is not None for v in (self.user, self.queue, self.jobid,
                                    self.start_after, self.start_before)
        ):
            return qs.order_by("-start_time")
        return qs.order_by("-+start_time", "-id")

    def run(self, only: Sequence[str] = ()) -> List:
        """Execute and return matching job records, newest first:
        full records, or partial ones holding the ``only`` fields the
        caller reads (:meth:`~repro.db.queryset.QuerySet.only`)."""
        # iter(): list() on the query set itself would COUNT(*) first
        return list(iter(self._newest_first().only(*only)))

    def rows(self, *columns: str) -> List[tuple]:
        """The matches as rows of ``columns``, newest first: what
        :meth:`run` selects, as the cursor's tuples."""
        return self._newest_first().values_list(*columns)

    def flagged_sublist(self) -> List:
        """The flagged jobs among the matches (§V-A sublist)."""
        return [r for r in self.run() if r.flags]


def browse_date(
    day_start: int, day_end: Optional[int] = None, only: Sequence[str] = ()
) -> List:
    """\"View all jobs for a given date\" (Fig. 3 calendar); ``only``
    as in :meth:`JobSearch.run`."""
    if day_end is None:
        day_end = day_start + 86_400
    return list(iter(
        JobRecord.objects.filter(
            end_time__gte=day_start, end_time__lt=day_end
        ).order_by("end_time").only(*only)
    ))

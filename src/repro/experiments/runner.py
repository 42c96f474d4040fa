"""Campaign execution layer over :mod:`repro.core.study`.

A :class:`Campaign` is an ordered set of uniquely-named
:class:`~repro.core.study.StudyConfig`\\ s plus an execution policy:

* **sweep builders** — :meth:`Campaign.from_grid` (cartesian product)
  and :meth:`Campaign.from_zip` (element-wise) derive configs from a
  base config by overriding flat knobs or whole config groups;
* **parallel execution** — :meth:`Campaign.run` fans independent
  studies out over a process pool, sizing it so per-study shard
  workers (``n_shards``) do not oversubscribe the machine;
* **keyed results** — results come back as ``{config.name: RunResult}``
  in config order, the shape the figure pipeline consumes;
* **resume** — with an ``out_dir``, each finished study is written as
  ``<name>.json`` immediately; a re-run loads finished studies from
  disk and only executes the missing ones, so an interrupted campaign
  continues where it stopped.
"""

from __future__ import annotations

import json
import os
from itertools import product
from time import perf_counter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.core.config import config_hash
from repro.core.study import StudyConfig, run_study
from repro.experiments.io import load_result, save_result
from repro.gossip.shard import auto_shard_count, usable_cpus
from repro.metrics.records import RunResult
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["Campaign"]


def _study_process_demand(config: StudyConfig) -> int:
    """Worker processes one study will occupy while running."""
    if config.executor == "sharded":
        return auto_shard_count(config.n_shards, config.n_nodes)
    return 1


def _run_study_timed(
    config: StudyConfig, submitted_ts: float
) -> tuple[RunResult, float, float]:
    """Pool-side wrapper: run one study and report (result, queue-wait
    seconds, wall seconds). Uses ``perf_counter`` — on the platforms we
    run on it reads the system-wide monotonic clock, so the wait stays
    comparable across the parent/worker process boundary and cannot go
    negative under NTP slew the way ``time.time()`` could."""
    started = perf_counter()
    result = run_study(config)
    return result, started - submitted_ts, perf_counter() - started


def _same_config(stored, config: StudyConfig) -> bool:
    """Whether a manifest entry describes ``config``. Entries compare by
    ``config_hash``, so one written in an older spelling (the removed
    ``engine``/``n_workers`` keys) still matches; an entry this build no
    longer loads counts as different."""
    try:
        return config_hash(stored) == config.config_hash()
    except ValueError:
        return False


def _axis_values(name: str, values) -> list:
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ValueError(
            f"sweep axis {name!r} needs an iterable of values, "
            f"got {type(values).__name__}"
        )
    values = list(values)
    if not values:
        raise ValueError(f"sweep axis {name!r} has no values")
    return values


def _axis_label(value) -> str:
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


class Campaign:
    """An ordered, uniquely-named set of studies with shared execution.

    ``configs`` must carry unique names — figures rely on them as
    series labels and the campaign keys results (and result files) by
    them. ``out_dir`` enables persistence + resume.
    """

    def __init__(
        self,
        configs: Sequence[StudyConfig],
        out_dir: str | Path | None = None,
        telemetry: Telemetry | None = None,
    ):
        # Campaign-level telemetry records queue-wait and wall-clock
        # per study in the *parent* process; it is not forwarded into
        # the studies themselves, so result files are byte-identical
        # whether the campaign runs instrumented or not (and the
        # serial and pooled paths stay symmetric).
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel = self.telemetry if self.telemetry.enabled else None
        self.configs = list(configs)
        if not self.configs:
            raise ValueError("a campaign needs at least one config")
        names = [config.name for config in self.configs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate config names: {names}")
        self.out_dir = Path(out_dir) if out_dir is not None else None

    # -- sweep builders -------------------------------------------------

    @classmethod
    def _from_combos(
        cls,
        base: StudyConfig,
        out_dir: str | Path | None,
        axis_names: Sequence[str],
        combos: Iterable[tuple],
    ) -> "Campaign":
        """Shared builder core: one config per axis-value combination,
        named ``{base.name}-{key}={value}-...``. Unknown axis names are
        rejected by ``with_overrides`` with the list of valid fields."""
        configs = []
        for combo in combos:
            overrides = dict(zip(axis_names, combo))
            suffix = "-".join(
                f"{key}={_axis_label(value)}" for key, value in overrides.items()
            )
            configs.append(
                base.with_overrides(name=f"{base.name}-{suffix}", **overrides)
            )
        return cls(configs, out_dir=out_dir)

    @classmethod
    def from_grid(
        cls,
        base: StudyConfig,
        out_dir: str | Path | None = None,
        **axes,
    ) -> "Campaign":
        """Cartesian product over ``axes`` (flat knobs or group names),
        in keyword order."""
        if not axes:
            raise ValueError("from_grid needs at least one sweep axis")
        axis_values = {
            name: _axis_values(name, values) for name, values in axes.items()
        }
        return cls._from_combos(
            base, out_dir, list(axis_values), product(*axis_values.values())
        )

    @classmethod
    def from_zip(
        cls,
        base: StudyConfig,
        out_dir: str | Path | None = None,
        **axes,
    ) -> "Campaign":
        """Element-wise sweep: axis i of every keyword varies together
        (all axes must have equal length)."""
        if not axes:
            raise ValueError("from_zip needs at least one sweep axis")
        axis_values = {
            name: _axis_values(name, values) for name, values in axes.items()
        }
        lengths = {name: len(values) for name, values in axis_values.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError(
                f"from_zip axes must have equal lengths, got {lengths}"
            )
        return cls._from_combos(
            base, out_dir, list(axis_values), zip(*axis_values.values())
        )

    # -- persistence ----------------------------------------------------

    def result_path(self, name: str) -> Path:
        """Where one study's RunResult JSON lives under ``out_dir``."""
        if self.out_dir is None:
            raise ValueError("this campaign has no out_dir")
        safe = name.replace(os.sep, "_")
        return self.out_dir / f"{safe}.json"

    @property
    def manifest_path(self) -> Path:
        """The out_dir's name -> config-dict manifest (resume guard).
        Dot-prefixed so it can never collide with a result file, whose
        name comes from a config name."""
        if self.out_dir is None:
            raise ValueError("this campaign has no out_dir")
        return self.out_dir / ".campaign-manifest.json"

    def _check_and_write_manifest(self) -> None:
        """Refuse to resume a directory built from different configs.

        Config names encode only the sweep axes, so a changed base
        config (e.g. a different ``--set rounds=``) would otherwise
        silently serve stale results under the new campaign's labels.
        """
        if self.out_dir is None:
            return
        manifest: dict = {}
        if self.manifest_path.exists():
            manifest = json.loads(self.manifest_path.read_text())
        for config in self.configs:
            stored = manifest.get(config.name)
            if stored is not None and not _same_config(stored, config):
                raise ValueError(
                    f"out_dir {self.out_dir} holds results for a different "
                    f"configuration of {config.name!r} (see "
                    f"{self.manifest_path}); use a fresh out_dir or delete "
                    f"the stale results"
                )
            manifest[config.name] = config.to_dict()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        tmp = self.manifest_path.with_name(self.manifest_path.name + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        os.replace(tmp, self.manifest_path)

    def _load_completed(self) -> dict[str, RunResult]:
        """Results already on disk (the resume set). Unreadable files
        (e.g. an interrupted write from a pre-atomic-save version) are
        treated as not completed and recomputed."""
        completed: dict[str, RunResult] = {}
        if self.out_dir is None or not self.out_dir.exists():
            return completed
        for config in self.configs:
            path = self.result_path(config.name)
            if path.exists():
                try:
                    completed[config.name] = load_result(path)
                except ValueError:
                    continue
        return completed

    def _save(self, result: RunResult) -> None:
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            save_result(result, self.result_path(result.config_name))

    # -- execution ------------------------------------------------------

    def default_jobs(self, configs: Sequence[StudyConfig] | None = None) -> int:
        """Pool size that respects per-study worker/shard demand: with
        studies that each occupy w processes, run ``cpus // w`` of them
        at a time (at least one, never more than the study count)."""
        configs = self.configs if configs is None else configs
        if not configs:
            return 1
        cpus = usable_cpus()
        demand = max(_study_process_demand(config) for config in configs)
        return max(1, min(len(configs), cpus // max(1, demand)))

    def run(self, jobs: int | None = None) -> dict[str, RunResult]:
        """Execute every study not already on disk; return all results
        keyed by config name, in config order.

        ``jobs`` is the number of studies in flight at once: 1 runs
        them serially in-process, ``None`` picks :meth:`default_jobs`.
        Each finished study is persisted to ``out_dir`` immediately
        (atomic writes), so a killed campaign loses at most the studies
        that were mid-run; the directory's manifest rejects a resume
        under a changed base config instead of serving stale results.
        """
        self._check_and_write_manifest()
        results = self._load_completed()
        pending = [c for c in self.configs if c.name not in results]
        if jobs is None:
            jobs = self.default_jobs(pending)
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        tel = self._tel
        if tel is not None:
            queue_hist = tel.registry.histogram(
                "repro_campaign_queue_wait_ms",
                "Time a study spent queued before it started running",
                labels=("study",),
            )
            wall_hist = tel.registry.histogram(
                "repro_campaign_study_wall_ms",
                "Wall-clock of one campaign study, end to end",
                labels=("study",),
            )
            submitted_ts = perf_counter()
        if jobs == 1 or len(pending) <= 1:
            for config in pending:
                if tel is None:
                    result = run_study(config)
                else:
                    started = perf_counter()
                    queue_hist.observe(
                        (started - submitted_ts) * 1000.0, study=config.name
                    )
                    with tel.tracer.span("campaign.study", study=config.name):
                        result = run_study(config)
                    wall_hist.observe(
                        (perf_counter() - started) * 1000.0, study=config.name
                    )
                self._save(result)
                results[config.name] = result
        else:
            from concurrent.futures import ProcessPoolExecutor, as_completed

            with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
                if tel is None:
                    futures = {
                        pool.submit(run_study, config): config
                        for config in pending
                    }
                else:
                    futures = {
                        pool.submit(_run_study_timed, config, submitted_ts): config
                        for config in pending
                    }
                # Persist in completion order, not submission order, and
                # drain every future before propagating a failure: one
                # crashed study must not discard siblings that finished
                # (they are on disk for the resume).
                first_error: BaseException | None = None
                for future in as_completed(futures):
                    try:
                        out = future.result()
                    except BaseException as exc:
                        if first_error is None:
                            first_error = exc
                        continue
                    name = futures[future].name
                    if tel is None:
                        result = out
                    else:
                        result, wait_s, wall_s = out
                        queue_hist.observe(wait_s * 1000.0, study=name)
                        wall_hist.observe(wall_s * 1000.0, study=name)
                        tel.tracer.event("campaign.study_done", study=name)
                    self._save(result)
                    results[name] = result
                if first_error is not None:
                    raise first_error
        return {config.name: results[config.name] for config in self.configs}

"""Durable service restart: a PreferenceService over a ``data_dir``
session must come back from snapshot + WAL with the exact catalog, its
recorded continuous views re-materialized, and the recovery facts
surfaced in ``/metrics`` — the in-process twin of CI's SIGKILL smoke.
"""

import pytest

from repro.core.base_numerical import HighestPreference, LowestPreference
from repro.core.constructors import pareto
from repro.psql.ast import Comparison
from repro.server import (
    ClientError,
    PreferenceClient,
    PreferenceService,
    run_in_thread,
)
from repro.server.service import ServiceError
from repro.session import Session

CARS = [
    {"id": 1, "make": "opel", "price": 20_000.0, "power": 90},
    {"id": 2, "make": "bmw", "price": 38_000.0, "power": 170},
    {"id": 3, "make": "vw", "price": 39_500.0, "power": 110},
]

PREF = pareto(LowestPreference("price"), HighestPreference("power"))


def _canon(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


def _durable_service(tmp_path, seed=None):
    session = Session(seed, storage="sqlite", data_dir=str(tmp_path))
    return session, PreferenceService(session)


class TestServiceRestart:
    def test_catalog_views_and_stats_survive_a_restart(self, tmp_path):
        session, service = _durable_service(
            tmp_path, {"car": [dict(r) for r in CARS]}
        )
        try:
            service.materialize("car", PREF)
            session.insert_rows("car", [
                {"id": 4, "make": "opel", "price": 19_000.0, "power": 95},
            ])
            info = service.checkpoint()
            assert info["seq"] >= 1
            # Post-checkpoint mutations live only in the WAL.
            session.insert_rows("car", [
                {"id": 5, "make": "vw", "price": 18_500.0, "power": 85},
            ])
            session.delete_rows("car", rows=[dict(CARS[1])])
            before_rows = session.catalog.get("car").rows()
            before_version = session.catalog.version("car")
            before_view = service.query(
                spec={"relation": "car",
                      "prefer": {"type": "pareto", "children": [
                          {"type": "lowest", "attribute": "price"},
                          {"type": "highest", "attribute": "power"},
                      ]}}
            )
            assert before_view.source == "view"
        finally:
            service.close()
            session.close()

        session2, service2 = _durable_service(tmp_path)
        try:
            assert session2.catalog.get("car").rows() == before_rows
            assert session2.catalog.version("car") == before_version
            # The restored mirror is live: a selection is pushed into it.
            pushed = (session2.query("car")
                      .where(Comparison("make", "=", "opel"))
                      .prefer(LowestPreference("price")))
            assert "push_select_into_storage" in pushed.plan().rewrite_rules()
            assert pushed.run().rows() == pushed.optimize(False).run().rows()
            recovery = service2.recovery
            assert recovery is not None
            assert recovery["snapshot_seq"] >= 1
            assert recovery["wal_replayed"] == 2
            assert recovery["views_rematerialized"] == 1
            after_view = service2.query(
                spec={"relation": "car",
                      "prefer": {"type": "pareto", "children": [
                          {"type": "lowest", "attribute": "price"},
                          {"type": "highest", "attribute": "power"},
                      ]}}
            )
            assert after_view.source == "view"
            assert _canon(after_view.rows) == _canon(before_view.rows)
            stats = service2.stats()
            assert stats["storage"]["durable"]
            assert stats["storage"]["backend"] == "sqlite"
            assert stats["storage"]["recovery"]["wal_replayed"] == 2
        finally:
            service2.close()
            session2.close()

    def test_replay_is_idempotent_across_restarts(self, tmp_path):
        session, service = _durable_service(
            tmp_path, {"car": [dict(r) for r in CARS]}
        )
        try:
            session.insert_rows("car", [
                {"id": 4, "make": "opel", "price": 1.0, "power": 1},
            ])
            expected = session.catalog.get("car").rows()
        finally:
            service.close()
            session.close()
        for _ in range(3):  # reopen without checkpointing: same log,
            reopened = Session(storage="sqlite",  # same answer each time
                               data_dir=str(tmp_path))
            try:
                assert reopened.catalog.get("car").rows() == expected
            finally:
                reopened.close()

    def test_view_of_a_dropped_relation_is_skipped_not_fatal(
        self, tmp_path
    ):
        session, service = _durable_service(
            tmp_path, {"car": [dict(r) for r in CARS]}
        )
        try:
            service.materialize("car", PREF)
            session.catalog.drop("car")
        finally:
            service.close()
            session.close()
        # The recorded spec references a relation that no longer exists:
        # recovery must skip it and still boot, not refuse.
        session2, service2 = _durable_service(tmp_path)
        try:
            assert service2.recovery["views_rematerialized"] == 0
            assert "car" not in list(session2.catalog)
        finally:
            service2.close()
            session2.close()

    def test_undurable_relation_keeps_serving_and_is_surfaced(
        self, tmp_path
    ):
        session, service = _durable_service(tmp_path)
        try:
            session.register("blob", [{"x": object()}])
            assert service.query(sql="SELECT * FROM blob").rows
            assert service.stats()["storage"][
                "undurable_relations"] == ["blob"]
        finally:
            service.close()
            session.close()
        session2, service2 = _durable_service(tmp_path)
        try:  # undurable data is the one thing a restart cannot bring back
            assert "blob" not in list(session2.catalog)
        finally:
            service2.close()
            session2.close()


class TestCheckpointOp:
    def test_checkpoint_over_the_wire(self, tmp_path):
        session, service = _durable_service(
            tmp_path, {"car": [dict(r) for r in CARS]}
        )
        handle = run_in_thread(service)
        try:
            with PreferenceClient(port=handle.port) as client:
                info = client.checkpoint()
                assert info["seq"] >= 1
                assert client.metrics()["checkpoints"] == 1
        finally:
            handle.stop()
            service.close()
            session.close()

    def test_checkpoint_requires_durability(self):
        service = PreferenceService({"car": [dict(r) for r in CARS]})
        handle = run_in_thread(service)
        try:
            with pytest.raises(ServiceError):
                service.checkpoint()
            with PreferenceClient(port=handle.port) as client:
                with pytest.raises(ClientError):
                    client.checkpoint()
        finally:
            handle.stop()
            service.close()

"""Job specs and stored job records fail closed on malformed input."""

from __future__ import annotations

import json

import pytest

from repro.service import FaultSpec, JobRecord, JobSpec, JobSpecError, JobTable
from repro.util.codec import FormatError


class TestJobSpecTypes:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 1.5),
            ("sites", True),
            ("shards", "4"),
            ("progress_every", None),
            ("limit", 2.0),
            ("max_workers", False),
        ],
    )
    def test_non_integer_field_is_rejected(self, field, value):
        with pytest.raises(JobSpecError, match=f"{field} must be an integer"):
            JobSpec.from_dict({field: value})

    @pytest.mark.parametrize(
        "payload, pattern",
        [
            ({"corrupt_allowlist": "no"}, "corrupt_allowlist must be a boolean"),
            ({"stream_results": "no"}, "stream_results must be a boolean"),
            ({"stream_results": 1}, "stream_results must be a boolean"),
            ({"backend": 5}, "backend must be a string or null"),
            ({"vantage": ["eu"]}, "vantage must be a string"),
        ],
    )
    def test_mistyped_field_is_rejected(self, payload, pattern):
        with pytest.raises(JobSpecError, match=pattern):
            JobSpec.from_dict(payload)

    def test_optional_integer_fields_accept_null(self):
        spec = JobSpec.from_dict({"limit": None, "max_workers": None})
        assert spec.limit is None and spec.max_workers is None

    @pytest.mark.parametrize("payload", [[1], "x", None])
    def test_non_object_spec_is_rejected(self, payload):
        with pytest.raises(JobSpecError, match="must be a JSON object"):
            JobSpec.from_dict(payload)

    def test_non_object_fault_is_rejected(self):
        with pytest.raises(JobSpecError, match="fault must be a JSON object"):
            JobSpec.from_dict({"fault": [1]})

    @pytest.mark.parametrize(
        "fault, pattern",
        [
            ({"shard_index": 1.7}, "'shard_index' has the wrong type"),
            ({"shard_index": True}, "'shard_index' has the wrong type"),
            ({"kill_service": "no"}, "'kill_service' has the wrong type"),
            ({"kill_service": 0}, "'kill_service' has the wrong type"),
            ({"points": "1-5"}, "'points' has the wrong type"),
            ({"points": [[True, "5"]]}, "'points' must hold"),
            ({"points": [[1, 5, 9]]}, "'points' must hold"),
            ({"points": [{"attempt": 1}]}, "'points' must hold"),
            ({"shard": 1}, "unexpected field 'shard'"),
        ],
    )
    def test_mistyped_fault_field_is_rejected(self, fault, pattern):
        with pytest.raises(JobSpecError, match=f"fault: .*{pattern}"):
            JobSpec.from_dict({"fault": fault})

    def test_typed_fault_loads_as_written(self):
        fault = {"shard_index": 1, "points": [[1, 5]], "kill_service": True}
        spec = JobSpec.from_dict({"fault": fault})
        assert spec.fault == FaultSpec(1, ((1, 5),), True)
        assert spec.fault.to_dict() == fault


class TestJobRecordFile:
    @pytest.fixture
    def table(self, tmp_path) -> JobTable:
        table = JobTable(tmp_path / "jobs")
        table.save(JobRecord(job_id="job-000001", spec=JobSpec()))
        return table

    def _write(self, table: JobTable, record: object):
        path = table.job_dir("job-000001") / JobTable.RECORD_FILE
        path.write_text(json.dumps(record), encoding="utf-8")
        return path

    def test_intact_record_loads(self, table):
        assert table.load("job-000001").job_id == "job-000001"

    def test_array_record_names_the_file(self, table):
        path = self._write(table, [])
        with pytest.raises(FormatError, match="expected a JSON object") as excinfo:
            table.load("job-000001")
        assert excinfo.value.path == str(path)

    def test_record_without_job_id_names_the_file(self, table):
        path = self._write(table, {"state": "queued"})
        with pytest.raises(FormatError, match="missing field 'job_id'") as excinfo:
            table.load_all()
        assert excinfo.value.path == str(path)

    def test_string_resumed_names_the_file(self, table):
        record = table.load("job-000001").to_dict(persist=True)
        path = self._write(table, {**record, "resumed": "2"})
        with pytest.raises(FormatError, match="'resumed'") as excinfo:
            table.load("job-000001")
        assert excinfo.value.path == str(path)

    def test_truncated_record_names_the_file(self, table):
        path = table.job_dir("job-000001") / JobTable.RECORD_FILE
        path.write_text('{"job_id": "job-0', encoding="utf-8")
        with pytest.raises(FormatError) as excinfo:
            table.load("job-000001")
        assert excinfo.value.path == str(path)

    def test_missing_job_is_still_a_key_error(self, table):
        with pytest.raises(KeyError, match="no such job"):
            table.load("job-000002")

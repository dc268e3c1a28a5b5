import contextlib
import io
import json
import os
import resource
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import blob_dir_stream, frame_bytes
from phasequant import cli, disagg
from phasequant.cli import main
from phasequant.disagg import connect_tcp, deserialize_kv, request_prefill
from phasequant.engine import ExecutionMode, SamplerSpec, parse_trajectory_dump
from phasequant.model import load_model, save_model


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_process(*argv, env=(), **kwargs) -> subprocess.Popen:
    """``python -m phasequant *argv`` in a child process, with this
    checkout's ``src`` first on its path and the variables ``env`` adds."""
    env = {**os.environ, **dict(env)}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, "-m", "phasequant", *argv],
                            env=env, **kwargs)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "m.mxqw")
    code, _, err = run_cli(
        "init-model", "--seed", "11", "--vocab-size", "64", "--d-model", "32",
        "--n-layers", "1", "--n-heads", "2", "--max-seq-len", "64",
        "--out", path,
    )
    assert code == 0, err
    return path


# Address space of a child that must fail to allocate: room for Python and
# numpy, far below what the commands below ask for.
_ADDRESS_CAP = 2 << 30


def run_capped(*argv):
    """``cli_process(*argv)`` to its end under ``_ADDRESS_CAP``, set in the
    child only, with one BLAS thread so the library's own buffers fit.
    Returns the exit code, stdout, stderr and seconds taken."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_CAP, _ADDRESS_CAP))

    start = time.monotonic()
    with cli_process(*argv, env={"OPENBLAS_NUM_THREADS": "1",
                                 "OMP_NUM_THREADS": "1"},
                     preexec_fn=cap, stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    return proc.returncode, out, err, time.monotonic() - start


def assert_one_memory_error_line(code, err, seconds):
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert seconds < 10


class TestRunningOutOfMemory:
    def test_init_model_of_too_many_layers(self, tmp_path):
        # sized from the schema: no per-layer list of 2**32 - 1 layers
        path = tmp_path / "m.mxqw"
        code, out, err, seconds = run_capped(
            "init-model", "--seed", "1", "--n-layers", "4294967295",
            "--d-model", "16", "--n-heads", "1", "--vocab-size", "1",
            "--out", str(path))
        assert_one_memory_error_line(code, err, seconds)
        assert out == ""
        assert not path.exists()

    def test_generate_over_a_cache_too_long_to_allocate(self, tmp_path):
        path = str(tmp_path / "m.mxqw")
        code, _, err = run_cli(
            "init-model", "--seed", "1", "--vocab-size", "16", "--d-model",
            "16", "--n-layers", "1", "--n-heads", "1", "--max-seq-len",
            "4294967295", "--out", path)
        assert code == 0, err
        code, out, err, seconds = run_capped(
            "generate", "--model", path, "--mode", "baseline16",
            "--prompt-tokens", "1,2")
        assert_one_memory_error_line(code, err, seconds)
        assert out == ""


class TestInitModel:
    def test_requires_seed(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("init-model", "--out", str(tmp_path / "x.mxqw"))
        assert err.value.code == 2

    def test_same_seed_same_file(self, tmp_path):
        a = str(tmp_path / "a.mxqw")
        b = str(tmp_path / "b.mxqw")
        for path in (a, b):
            code, _, _ = run_cli("init-model", "--seed", "5", "--vocab-size",
                                 "32", "--d-model", "32", "--n-layers", "1",
                                 "--n-heads", "2", "--max-seq-len", "32",
                                 "--out", path)
            assert code == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_bad_config_exits_one(self, tmp_path):
        code, _, err = run_cli("init-model", "--seed", "1", "--d-model", "24",
                               "--out", str(tmp_path / "x.mxqw"))
        assert code == 1
        assert "error:" in err

    def test_size_beyond_its_file_field_is_one_error_line(self, tmp_path,
                                                         monkeypatch):
        # every size is a u32 in the weight file, so one past it is refused
        # before any weight is made
        path = tmp_path / "m.mxqw"

        def no_weights(cfg):
            pytest.fail("init_model ran on a config its file cannot hold")

        with monkeypatch.context() as patched:
            patched.setattr(cli, "init_model", no_weights)
            for flag in ("--max-seq-len", "--vocab-size", "--d-model",
                         "--ffn-hidden", "--n-layers"):
                code, _, err = run_cli("init-model", "--seed", "1", flag,
                                       "4294967296", "--out", str(path))
                assert code == 1, flag
                assert err.startswith("error: config field out of range")
                assert err.count("\n") == 1
                assert not path.exists()
        code, _, _ = run_cli("init-model", "--seed", "1", "--max-seq-len",
                             "4294967295", "--out", str(path))
        assert code == 0
        assert path.exists()


class TestGenerate:
    def test_greedy_dump_contract(self, model_file):
        code, out, _ = run_cli("generate", "--model", model_file, "--mode",
                               "mixquant", "--prompt-tokens", "1,5,9",
                               "--max-new", "4", "--greedy")
        assert code == 0
        parsed = parse_trajectory_dump(out)
        assert parsed["header"]["mode"] == "mixquant"
        assert parsed["prompt"] == [1, 5, 9]
        assert len(parsed["tokens"]) == 4

    def test_reproducible_across_invocations(self, model_file):
        runs = [run_cli("generate", "--model", model_file, "--mode", "p16d4",
                        "--prompt-tokens", "2,4", "--max-new", "5",
                        "--temperature", "0.8", "--seed", "33")
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    def test_temperature_without_seed_is_usage_error(self, model_file):
        with pytest.raises(SystemExit) as err:
            run_cli("generate", "--model", model_file, "--mode", "baseline16",
                    "--prompt-tokens", "1", "--temperature", "0.5")
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("generate", "--mode", "baseline16", "--prompt-tokens", "1,x"),
        ("generate", "--mode", "baseline16", "--prompt-tokens", "1",
         "--greedy", "--temperature", "0.7", "--seed", "5"),
        ("analyze-attn", "--prompt-tokens", "1,2", "--k", "1,x"),
        ("prefill-worker", "--listen", "127.0.0.1:abc"),
        ("decode-worker", "--listen", "127.0.0.1:65536"),
        ("prefill-worker", "--listen", "localhost:-1"),
    ], ids=["prompt-tokens", "greedy-and-temperature", "k", "listen-port-not-int",
            "listen-port-too-large", "listen-port-negative"])
    def test_usage_errors_exit_two(self, model_file, argv):
        err = io.StringIO()
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
            main([argv[0], "--model", model_file, *argv[1:]])
        assert exc.value.code == 2
        assert "usage:" in err.getvalue()

    @pytest.mark.parametrize("cut", [
        lambda raw: raw[:6], lambda raw: raw[:20], lambda raw: raw[:59],
        lambda raw: raw[:-1], lambda raw: raw + b"\x00",
        lambda raw: raw[:4] + (2).to_bytes(4, "little") + raw[8:],
    ], ids=["6-bytes", "20-bytes", "59-bytes", "one-short", "one-long",
            "version-2"])
    def test_weight_file_of_wrong_length_is_one_error_line(
            self, model_file, tmp_path, cut):
        path = tmp_path / "cut.mxqw"
        path.write_bytes(cut(Path(model_file).read_bytes()))
        with pytest.raises(ValueError):
            load_model(str(path))
        code, _, err = run_cli("generate", "--model", str(path), "--mode",
                               "mixquant", "--prompt-tokens", "1,5,9",
                               "--max-new", "1", "--greedy")
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("tensor, value", [
        ("attn_q", np.nan), ("mlp_down", np.inf), ("attn_norm_gain", -np.inf),
    ], ids=["nan-attn_q", "inf-mlp_down", "-inf-attn_norm_gain"])
    def test_non_finite_weight_is_one_error_line(self, model_file, tmp_path,
                                                 tensor, value):
        weights = load_model(model_file)
        getattr(weights.layers[0], tensor)[0] = value
        path = tmp_path / "bad.mxqw"
        save_model(weights, str(path))
        with pytest.raises(ValueError, match=f"layer 0 {tensor} is not finite"):
            load_model(str(path))
        code, out, err = run_cli("generate", "--model", str(path), "--mode",
                                 "baseline16", "--prompt-tokens", "1,5,9",
                                 "--max-new", "2", "--greedy")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["generate", "analyze-attn"])
    def test_id_past_int64_is_one_error_line(self, model_file, command):
        code, out, err = run_cli(command, "--model", model_file, "--mode",
                                 "mixquant", "--prompt-tokens",
                                 "1,99999999999999999999")
        assert code == 1
        assert out == ""
        assert err == "error: token id outside vocabulary\n"

    def test_unknown_mode_exits_one(self, model_file):
        code, _, err = run_cli("generate", "--model", model_file, "--mode",
                               "fp8", "--prompt-tokens", "1")
        assert code == 1

    def test_overflowing_temperature_is_one_error_line(self, model_file):
        # a temperature this small overflows the logits it divides; the
        # command reports that once, with no numpy warning before it
        with cli_process("generate", "--model", model_file, "--mode",
                         "mixquant", "--prompt-tokens", "1,2,3",
                         "--temperature", "1e-40", "--seed", "1",
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True) as proc:
            try:
                out, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert proc.returncode == 1
        assert out == ""
        assert err == "error: logits must be finite\n"


# `compare-modes --json` on the module's model file, prompt 1,2, three new
# tokens, pinned byte for byte.  Both goldens hold values of float32
# matmuls, whose last bits another BLAS may change.
COMPARE_MODES_GOLDEN = "".join(
    '{"first_divergence": null, "kl_per_step": [%s], "ref_mode": '
    '"baseline16", "steps_compared": 3, "test_mode": "%s", "top1_agree": '
    '[true, true, true]}\n' % (kl, mode) for mode, kl in (
        ("uniform_fp4", "6.279330467252555e-05, 8.813698200375224e-05, "
                        "8.680125681563209e-05"),
        ("mixquant", "6.279330467252555e-05, 1.1425572491705971e-05, "
                     "6.217776493797834e-06"),
        ("p16d4", "0.0, 6.0527216870241056e-05, 3.1484665383578665e-05"),
    ))

# `analyze-attn --json` of the mixquant prompt pass over 1..6 on the
# module's model file, k = 1, 3, 6, pinned byte for byte.
ANALYZE_ATTN_GOLDEN = (
    '{"ks": [1, 3, 6], "mean_per_k": [0.16940085589885712, '
    '0.5054489746689796, 0.9999999850988388], "per_head": '
    '[[[0.1700107902288437, 0.5062394738197327, 0.9999999552965164], '
    '[0.16879092156887054, 0.5046584755182266, 1.0000000149011612]]], '
    '"seq_len": 6}\n'
)


class TestCompareModes:
    def test_emits_three_reports(self, model_file):
        code, out, _ = run_cli("compare-modes", "--model", model_file,
                               "--prompt-tokens", "1,5,9", "--max-new", "4")
        assert code == 0
        assert out.count("ref_mode=baseline16") == 3
        for mode in ("uniform_fp4", "mixquant", "p16d4"):
            assert f"test_mode={mode}" in out

    def test_byte_identical_reruns(self, model_file):
        a = run_cli("compare-modes", "--model", model_file, "--prompt-tokens",
                    "3,1,4,1,5", "--max-new", "6")
        b = run_cli("compare-modes", "--model", model_file, "--prompt-tokens",
                    "3,1,4,1,5", "--max-new", "6")
        assert a == b

    def test_json_mode(self, model_file):
        code, out, _ = run_cli("compare-modes", "--model", model_file,
                               "--prompt-tokens", "1,2", "--max-new", "3",
                               "--json")
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert len(reports) == 3
        assert {r["test_mode"] for r in reports} == {
            "uniform_fp4", "mixquant", "p16d4"}
        assert out == COMPARE_MODES_GOLDEN


class TestAnalyzeAttn:
    def test_report_fields(self, model_file):
        code, out, _ = run_cli("analyze-attn", "--model", model_file,
                               "--mode", "mixquant", "--prompt-tokens",
                               "1,2,3,4,5,6", "--k", "1,3,6", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["ks"] == [1, 3, 6]
        assert report["seq_len"] == 6
        means = report["mean_per_k"]
        assert means == sorted(means)
        assert abs(means[-1] - 1.0) <= 1e-5
        assert out == ANALYZE_ATTN_GOLDEN

    @pytest.mark.parametrize("ks", ["", ",", "0", "4"])
    def test_no_k_or_one_outside_the_prompt_is_one_error_line(
            self, model_file, ks):
        code, out, err = run_cli("analyze-attn", "--model", model_file,
                                 "--prompt-tokens", "1,2,3", "--k", ks)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "stack" not in err


COST_GEOMETRY = ("--d-model", "256", "--ffn-hidden", "1024", "--n-layers", "2",
                 "--prompt-len", "2048", "--gen-len", "64",
                 "--throughput-ratio", "3")

# `cost` output at COST_GEOMETRY for each mode, text then `--json`, pinned
# byte for byte: both formats follow `CostReport`'s field order and types.
COST_GOLDEN = {
    "baseline16": (
        "mode=baseline16\n"
        "throughput_ratio=3.0\n"
        "prefill_linear_macs=4294967296\n"
        "prefill_attn_macs=2147483648\n"
        "prefill_total_macs=6442450944\n"
        "decode_linear_macs=134217728\n"
        "decode_attn_macs=68173824\n"
        "decode_total_macs=202391552\n"
        "prefill_lowbit_macs=0\n"
        "decode_lowbit_macs=0\n"
        "prefill_linear_lowbit_fraction=0.0\n"
        "prefill_total_lowbit_fraction=0.0\n"
        "decode_total_lowbit_fraction=0.0\n"
        "modeled_prefill_speedup=1.0\n",
        '{"decode_attn_macs": 68173824, '
        '"decode_linear_macs": 134217728, "decode_lowbit_macs": 0, '
        '"decode_total_lowbit_fraction": 0.0, '
        '"decode_total_macs": 202391552, "mode": "baseline16", '
        '"modeled_prefill_speedup": 1.0, '
        '"prefill_attn_macs": 2147483648, '
        '"prefill_linear_lowbit_fraction": 0.0, '
        '"prefill_linear_macs": 4294967296, "prefill_lowbit_macs": 0, '
        '"prefill_total_lowbit_fraction": 0.0, '
        '"prefill_total_macs": 6442450944, "throughput_ratio": 3.0}\n'
    ),
    "uniform_fp4": (
        "mode=uniform_fp4\n"
        "throughput_ratio=3.0\n"
        "prefill_linear_macs=4294967296\n"
        "prefill_attn_macs=2147483648\n"
        "prefill_total_macs=6442450944\n"
        "decode_linear_macs=134217728\n"
        "decode_attn_macs=68173824\n"
        "decode_total_macs=202391552\n"
        "prefill_lowbit_macs=4294967296\n"
        "decode_lowbit_macs=134217728\n"
        "prefill_linear_lowbit_fraction=1.0\n"
        "prefill_total_lowbit_fraction=0.6666666666666666\n"
        "decode_total_lowbit_fraction=0.6631587468631102\n"
        "modeled_prefill_speedup=1.8000000000000003\n",
        '{"decode_attn_macs": 68173824, '
        '"decode_linear_macs": 134217728, '
        '"decode_lowbit_macs": 134217728, '
        '"decode_total_lowbit_fraction": 0.6631587468631102, '
        '"decode_total_macs": 202391552, "mode": "uniform_fp4", '
        '"modeled_prefill_speedup": 1.8000000000000003, '
        '"prefill_attn_macs": 2147483648, '
        '"prefill_linear_lowbit_fraction": 1.0, '
        '"prefill_linear_macs": 4294967296, '
        '"prefill_lowbit_macs": 4294967296, '
        '"prefill_total_lowbit_fraction": 0.6666666666666666, '
        '"prefill_total_macs": 6442450944, "throughput_ratio": 3.0}\n'
    ),
    "mixquant": (
        "mode=mixquant\n"
        "throughput_ratio=3.0\n"
        "prefill_linear_macs=4294967296\n"
        "prefill_attn_macs=2147483648\n"
        "prefill_total_macs=6442450944\n"
        "decode_linear_macs=134217728\n"
        "decode_attn_macs=68173824\n"
        "decode_total_macs=202391552\n"
        "prefill_lowbit_macs=4294967296\n"
        "decode_lowbit_macs=0\n"
        "prefill_linear_lowbit_fraction=1.0\n"
        "prefill_total_lowbit_fraction=0.6666666666666666\n"
        "decode_total_lowbit_fraction=0.0\n"
        "modeled_prefill_speedup=1.8000000000000003\n",
        '{"decode_attn_macs": 68173824, '
        '"decode_linear_macs": 134217728, "decode_lowbit_macs": 0, '
        '"decode_total_lowbit_fraction": 0.0, '
        '"decode_total_macs": 202391552, "mode": "mixquant", '
        '"modeled_prefill_speedup": 1.8000000000000003, '
        '"prefill_attn_macs": 2147483648, '
        '"prefill_linear_lowbit_fraction": 1.0, '
        '"prefill_linear_macs": 4294967296, '
        '"prefill_lowbit_macs": 4294967296, '
        '"prefill_total_lowbit_fraction": 0.6666666666666666, '
        '"prefill_total_macs": 6442450944, "throughput_ratio": 3.0}\n'
    ),
    "p16d4": (
        "mode=p16d4\n"
        "throughput_ratio=3.0\n"
        "prefill_linear_macs=4294967296\n"
        "prefill_attn_macs=2147483648\n"
        "prefill_total_macs=6442450944\n"
        "decode_linear_macs=134217728\n"
        "decode_attn_macs=68173824\n"
        "decode_total_macs=202391552\n"
        "prefill_lowbit_macs=0\n"
        "decode_lowbit_macs=134217728\n"
        "prefill_linear_lowbit_fraction=0.0\n"
        "prefill_total_lowbit_fraction=0.0\n"
        "decode_total_lowbit_fraction=0.6631587468631102\n"
        "modeled_prefill_speedup=1.0\n",
        '{"decode_attn_macs": 68173824, '
        '"decode_linear_macs": 134217728, '
        '"decode_lowbit_macs": 134217728, '
        '"decode_total_lowbit_fraction": 0.6631587468631102, '
        '"decode_total_macs": 202391552, "mode": "p16d4", '
        '"modeled_prefill_speedup": 1.0, '
        '"prefill_attn_macs": 2147483648, '
        '"prefill_linear_lowbit_fraction": 0.0, '
        '"prefill_linear_macs": 4294967296, "prefill_lowbit_macs": 0, '
        '"prefill_total_lowbit_fraction": 0.0, '
        '"prefill_total_macs": 6442450944, "throughput_ratio": 3.0}\n'
    ),
}


class TestCost:
    def test_cost_json(self):
        code, out, _ = run_cli(
            "cost", "--d-model", "256", "--ffn-hidden", "1024", "--n-layers",
            "1", "--prompt-len", "2048", "--gen-len", "8",
            "--mode", "mixquant", "--throughput-ratio", "3", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["prefill_linear_lowbit_fraction"] == 1.0
        assert report["prefill_linear_macs"] == 2048 * (4 * 256**2 + 3 * 256 * 1024)
        assert report["prefill_attn_macs"] == 2048 * 2048 * 256

    def test_ratio_one(self):
        code, out, _ = run_cli(
            "cost", "--d-model", "64", "--ffn-hidden", "256", "--prompt-len",
            "64", "--mode", "uniform_fp4", "--throughput-ratio", "1", "--json")
        assert code == 0
        assert json.loads(out)["modeled_prefill_speedup"] == 1.0

    @pytest.mark.parametrize("mode", list(COST_GOLDEN))
    def test_report_bytes(self, mode):
        text, as_json = COST_GOLDEN[mode]
        assert run_cli("cost", *COST_GEOMETRY, "--mode", mode) == (0, text, "")
        assert run_cli("cost", *COST_GEOMETRY, "--mode", mode, "--json") == (
            0, as_json, "")

    def test_context_beyond_the_file_field_is_not_packed(self):
        # a u32 max_seq_len bounds what a weight file stores, not what cost
        # may model
        code, _, err = run_cli(
            "cost", "--d-model", "256", "--ffn-hidden", "1024",
            "--prompt-len", "5000000000", "--mode", "mixquant")
        assert code == 0, err

    def test_width_four_heads_do_not_split(self):
        # 2400 is 150 heads of 16, but 4 heads of 600 would be refused;
        # cost asks for no head count, and its report reads none
        code, out, err = run_cli(
            "cost", "--d-model", "2400", "--ffn-hidden", "9600",
            "--prompt-len", "2048", "--mode", "mixquant", "--json")
        assert code == 0, err
        assert json.loads(out)["prefill_total_lowbit_fraction"] == 38400 / 40448


class TestPerplexityCommand:
    def test_runs_on_corpus_file(self, model_file, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("1,2,3,4\n5,6,7\n")
        code, out, _ = run_cli("perplexity", "--model", model_file, "--mode",
                               "mixquant", "--corpus", str(corpus))
        assert code == 0
        assert out.startswith("perplexity=")
        assert float(out.split("=")[1]) >= 1.0

    def run_corpus(self, model_file, tmp_path, text):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(text)
        return run_cli("perplexity", "--model", model_file, "--mode",
                       "mixquant", "--corpus", str(corpus))

    def test_trailing_comma_as_in_prompt_tokens(self, model_file, tmp_path):
        plain = self.run_corpus(model_file, tmp_path, "1,2,3,4\n5,6,7\n")
        trailing = self.run_corpus(model_file, tmp_path, "1,2,3,4,\n5,6,7\n")
        assert plain[0] == 0
        assert trailing == plain

    def test_bad_entry_is_one_error_line(self, model_file, tmp_path):
        code, out, err = self.run_corpus(model_file, tmp_path, "1,x\n")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_blank_lines_only_is_one_error_line(self, model_file, tmp_path):
        code, out, err = self.run_corpus(model_file, tmp_path, "\n \n\n")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestDumpFormats:
    def test_table_shape(self):
        code, out, _ = run_cli("dump-formats")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 272
        assert lines[0] == "0,0.0"
        assert lines[15] == "15,-6.0"
        assert lines[16 + 255] == "255,nan"


class TestSelftest:
    def test_exit_zero_and_line_per_suite(self):
        code, out, _ = run_cli("selftest")
        assert code == 0
        assert out.strip().split("\n") == [
            "ok formats", "ok quantizer", "ok qgemm", "ok identity-collapse",
            "ok disagg", "ok attention", "ok analysis",
        ]


class TestWorkerCommands:
    def test_blob_dir_prefill_worker(self, model_file, tmp_path):
        d = tmp_path / "xfer"
        d.mkdir()
        sampler = SamplerSpec(max_new_tokens=2)
        (d / "request.bin").write_bytes(frame_bytes(
            (disagg.FrameType.HELLO, disagg.encode_hello(0)),
            (disagg.FrameType.GENERATE_REQ,
             disagg.encode_generate_req(ExecutionMode.MIX_QUANT, sampler,
                                        [1, 2, 3])),
        ))
        code, _, _ = run_cli("prefill-worker", "--model", model_file,
                             "--blob-dir", str(d))
        assert code == 0
        reply = io.BytesIO((d / "response.bin").read_bytes())
        stream = disagg.FrameStream(reply, reply)
        assert stream.read_frame()[0] is disagg.FrameType.HELLO
        ftype, body = stream.read_frame()
        assert ftype is disagg.FrameType.KV_BLOB
        assert body[:4] == b"MXQK"
        assert stream.read_frame()[0] is disagg.FrameType.PREFILL_LOGITS

    def test_worker_pair_over_blob_dirs(self, model_file, tmp_path):
        mono_code, mono_out, _ = run_cli(
            "generate", "--model", model_file, "--mode", "mixquant",
            "--prompt-tokens", "4,5,6", "--max-new", "3", "--greedy")
        assert mono_code == 0

        d1 = tmp_path / "pre"
        d2 = tmp_path / "dec"
        d1.mkdir()
        d2.mkdir()
        dump = disagg.disaggregated_generate(
            [4, 5, 6], ExecutionMode.MIX_QUANT, SamplerSpec(max_new_tokens=3),
            lambda: blob_dir_stream(d1, lambda d: run_cli(
                "prefill-worker", "--model", model_file,
                "--precision", "nvfp4", "--blob-dir", d)),
            lambda: blob_dir_stream(d2, lambda d: run_cli(
                "decode-worker", "--model", model_file,
                "--precision", "high", "--blob-dir", d)),
        )
        assert dump == mono_out

    def test_tcp_prefill_worker_serves_until_ctrl_c(self, model_file):
        with cli_process("prefill-worker", "--model", model_file, "--listen",
                         "127.0.0.1:0", stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True) as proc:
            try:
                ready, _, _ = select.select([proc.stderr], [], [], 60)
                line = proc.stderr.readline() if ready else ""
                host, _, port = line.removeprefix("listening ").rpartition(":")
                assert line.startswith("listening ") and host == "127.0.0.1"
                with contextlib.closing(connect_tcp(host, int(port))) as stream:
                    stream._sock.settimeout(60)
                    blob, _ = request_prefill(stream, [1, 2, 3],
                                              ExecutionMode.MIX_QUANT,
                                              SamplerSpec(max_new_tokens=2))
                assert deserialize_kv(blob).prompt == [1, 2, 3]
                proc.send_signal(signal.SIGINT)
                _, rest = proc.communicate(timeout=60)
            except BaseException:
                proc.kill()
                raise
        assert proc.returncode == 0
        assert rest == ""

import contextlib
import io
import json
from pathlib import Path

import pytest

from phasequant import disagg
from phasequant.cli import main
from phasequant.engine import ExecutionMode, SamplerSpec, parse_trajectory_dump


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


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

    def test_unknown_mode_exits_one(self, model_file):
        code, _, err = run_cli("generate", "--model", model_file, "--mode",
                               "fp8", "--prompt-tokens", "1")
        assert code == 1


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


class TestCost:
    def test_cost_json(self):
        code, out, _ = run_cli(
            "cost", "--d-model", "256", "--ffn-hidden", "1024", "--n-layers",
            "1", "--n-heads", "16", "--prompt-len", "2048", "--gen-len", "8",
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


class TestPerplexityCommand:
    def test_runs_on_corpus_file(self, model_file, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("1,2,3,4\n5,6,7\n")
        code, out, _ = run_cli("perplexity", "--model", model_file, "--mode",
                               "mixquant", "--corpus", str(corpus))
        assert code == 0
        assert out.startswith("perplexity=")
        assert float(out.split("=")[1]) >= 1.0


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
        request = io.BytesIO()
        stream = disagg.FrameStream(request, request)
        stream.write_frame(disagg.FrameType.HELLO, disagg.encode_hello(0))
        stream.write_frame(
            disagg.FrameType.GENERATE_REQ,
            disagg.encode_generate_req(ExecutionMode.MIX_QUANT, sampler,
                                       [1, 2, 3]),
        )
        (d / "request.bin").write_bytes(request.getvalue())
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
        ex1 = disagg.FileExchange(
            str(d1),
            lambda d: run_cli("prefill-worker", "--model", model_file,
                              "--precision", "nvfp4", "--blob-dir", d),
        )
        ex2 = disagg.FileExchange(
            str(d2),
            lambda d: run_cli("decode-worker", "--model", model_file,
                              "--precision", "high", "--blob-dir", d),
        )
        dump = disagg.disaggregated_generate(
            [4, 5, 6], ExecutionMode.MIX_QUANT, SamplerSpec(max_new_tokens=3),
            ex1.stream, ex2.stream)
        ex1.close()
        ex2.close()
        assert dump == mono_out

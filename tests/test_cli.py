import argparse
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from invgate import cli, harness, optim
from invgate import tensor as T
from invgate.cli import main
from invgate.config import RunConfig
from invgate.container import canonical_json
from invgate.data import MAGIC, GeneratorConfig, load_dataset
from invgate.errors import CheckpointError
from invgate.harness import load_checkpoint

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


@pytest.fixture()
def tiny_config_file(tmp_path):
    gen = GeneratorConfig(num_classes=4, shots=4, invariant_dim=6, confound_dim=4,
                          num_views=2, seed=0)
    cfg = RunConfig(generator=gen, epochs=2, batch_size=8,
                    mining_warmup=1, seed=0)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict()))
    return p, cfg


def test_generate_writes_dataset_and_manifest(tmp_path, tiny_config_file, capsys):
    cfg_path, cfg = tiny_config_file
    out = tmp_path / "data.igds"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    ds = load_dataset(str(out))
    assert len(ds.train) == 16
    assert (tmp_path / "data.igds.manifest").exists()
    assert "16 train" in capsys.readouterr().out


def test_generate_accepts_bare_generator_config(tmp_path, capsys):
    p = tmp_path / "gen.json"
    p.write_text(json.dumps({"num_classes": 4, "shots": 2, "invariant_dim": 4,
                             "confound_dim": 4, "num_views": 2, "seed": 3}))
    out = tmp_path / "d.igds"
    assert main(["generate", "--config", str(p), "--out", str(out), "--text"]) == 0
    assert load_dataset(str(out)).config.seed == 3


def test_generate_accepts_run_config_without_generator_key(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"epochs": 6}))
    out = tmp_path / "d.igds"
    assert main(["generate", "--config", str(p), "--out", str(out)]) == 0
    assert load_dataset(str(out)).config == GeneratorConfig()


def test_generate_rejects_unknown_config_keys(tmp_path, capsys):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"epochs": 6, "learning_rate": 0.1}))
    assert main(["generate", "--config", str(p), "--out", str(tmp_path / "d.igds")]) == 2
    err = capsys.readouterr().err
    assert err == "invgate: error: unknown config keys: ['learning_rate']\n"
    assert not (tmp_path / "d.igds").exists()


@pytest.mark.parametrize("command", ["generate", "train"])
@pytest.mark.parametrize("content", ['{"epochs": 6,', None], ids=["malformed", "missing"])
def test_unreadable_config_is_a_one_line_error(tmp_path, capsys, command, content):
    p = tmp_path / "cfg.json"
    if content is not None:
        p.write_text(content)
    assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invgate: error: cannot read config {p}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["generate", "train"])
@pytest.mark.parametrize("content", ["5", '[["epochs", 3]]'], ids=["number", "pairs"])
def test_non_object_config_is_a_one_line_error(tmp_path, capsys, command, content):
    p = tmp_path / "cfg.json"
    p.write_text(content)
    assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invgate: error: config must be a JSON object")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["generate", "train"])
def test_null_generator_is_a_one_line_error(tmp_path, capsys, command):
    p = tmp_path / "cfg.json"
    p.write_text('{"generator": null, "epochs": 1}')
    assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "invgate: error: generator must be a JSON object, got NoneType\n"
    assert not (tmp_path / "out").exists()


TRAIN_FLAGS = [
    (["--lambda", "2.5"], "irm_lambda", 2.5),
    (["--alpha", "0.5"], "align_alpha", 0.5),
    (["--phi", "2.0"], "fusion_phi", 2.0),
    (["--rho", "0.5"], "mining_rho", 0.5),
    (["--no-step1"], "enable_step1", False),
    (["--no-step2"], "enable_step2", False),
    (["--no-align"], "enable_align", False),
    (["--fusion", "add"], "fusion_mode", "additive"),
    (["--seed", "3"], "seed", 3),
]


def test_every_train_flag_sets_the_field_named_by_its_dest():
    p = argparse.ArgumentParser()
    cli._add_train_flags(p)
    dests = tuple(a.dest for a in p._actions if a.dest != "help")
    assert dests == cli._OVERRIDES == tuple(field for _, field, _ in TRAIN_FLAGS)
    assert set(dests) <= {f.name for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize("flag,field,value", TRAIN_FLAGS, ids=[f for _, f, _ in TRAIN_FLAGS])
def test_train_flag_lands_in_manifest_config(tmp_path, monkeypatch, flag, field, value):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    gen = GeneratorConfig(num_classes=4, shots=2, invariant_dim=6, confound_dim=4,
                          num_views=2, seed=0)
    # IRMv1, so that --lambda sets a weight the run reads; mining from the
    # default warm-up, which --no-step1 leaves unread at its default
    cfg = RunConfig(generator=gen, epochs=6, batch_size=8, irm_variant="irmv1")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict()))
    assert getattr(cfg, field) != value
    assert main(["train", "--config", str(p), "--out", str(tmp_path / "run"), *flag]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["config"] == cfg.replace(**{field: value}).to_dict()


def test_eval_truncated_checkpoint_is_a_one_line_error(tmp_path, tiny_config_file, capsys):
    cfg_path, _ = tiny_config_file
    data, run_dir = tmp_path / "data.igds", tmp_path / "run"
    main(["generate", "--config", str(cfg_path), "--out", str(data)])
    main(["train", "--config", str(cfg_path), "--data", str(data), "--out", str(run_dir)])
    ckpt = run_dir / "checkpoint.igck"
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invgate: error: ") and "truncated" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_eval_nan_phi_is_a_one_line_error(artefacts, capsys):
    assert main(["eval", "--checkpoint", str(artefacts["checkpoint"]),
                 "--data", str(artefacts["binary"]), "--phi", "nan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invgate: error: phi must be a finite number, got nan")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_diverging_train_is_a_one_line_error(tmp_path, tiny_config_file, capsys, monkeypatch):
    cfg_path, _ = tiny_config_file
    # a loss that diverges at the first step, whatever the config's rules reject
    monkeypatch.setattr(harness, "cross_entropy", lambda logits, labels: T.constant(np.inf))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err == "invgate: error: non-finite loss at epoch 0, batch 0\n"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_non_finite_parameters_are_a_one_line_error(tmp_path, tiny_config_file, capsys,
                                                    monkeypatch):
    cfg_path, _ = tiny_config_file
    monkeypatch.setattr(optim, "BASE_LR", 1e300)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invgate: error: non-finite parameter '") and "after epoch 0" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.fixture(scope="module")
def artefacts(tmp_path_factory):
    """A binary and a text dataset, and a checkpoint trained on the binary one."""
    tmp = tmp_path_factory.mktemp("artefacts")
    gen = GeneratorConfig(num_classes=4, shots=4, invariant_dim=6, confound_dim=4,
                          num_views=2, seed=0)
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(RunConfig(generator=gen, epochs=2,
                                        batch_size=8, mining_warmup=1).to_dict()))
    paths = {"binary": tmp / "data.igds", "text": tmp / "data.txt",
             "checkpoint": tmp / "run" / "checkpoint.igck"}
    assert main(["generate", "--config", str(cfg), "--out", str(paths["binary"])]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(paths["text"]), "--text"]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(paths["binary"]),
                 "--out", str(tmp / "run")]) == 0
    return paths


DAMAGE = {
    "cut_at_6": lambda b: b[:6],
    "cut_at_14": lambda b: b[:14],
    "cut_at_40": lambda b: b[:40],
    "cut_at_200": lambda b: b[:200],
    "cut_mid_file": lambda b: b[: len(b) // 2],
    "cut_5_before_end": lambda b: b[:-5],
    "8_trailing_bytes": lambda b: b + bytes(8),
    "corrupt_header": lambda b: b.replace(b'"config"', b'"konfig"', 1),
    "wrong_magic": lambda b: b"IGXX" + b[4:],
    "header_version_7": lambda b: re.sub(rb'"version":\d', b'"version":7', b, count=1),
}


@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("artefact", ["binary", "text", "checkpoint"])
def test_damaged_artefact_is_a_one_line_error(artefacts, tmp_path, capsys, artefact, damage):
    bad = tmp_path / "bad"
    bad.write_bytes(DAMAGE[damage](artefacts[artefact].read_bytes()))
    with pytest.raises(CheckpointError):
        (load_checkpoint if artefact == "checkpoint" else load_dataset)(str(bad))
    ckpt, data = ((bad, artefacts["binary"]) if artefact == "checkpoint"
                  else (artefacts["checkpoint"], bad))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invgate: error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _edit_dataset_header(blob, edit):
    """`blob`, a dataset file of either mode, with `edit` applied to its header."""
    if blob.startswith(MAGIC):      # magic, version, header length, header
        end = 16 + int.from_bytes(blob[8:16], "little")
        head, raw, rest = blob[:8], blob[16:end], blob[end:]
    else:                           # the format line, then the header line
        first, raw, rest = blob.split(b"\n", 2)
        head, rest = first + b"\n", b"\n" + rest
    header = json.loads(raw)
    edit(header)
    new = canonical_json(header).encode()
    if blob.startswith(MAGIC):
        head += len(new).to_bytes(8, "little")
    return head + new + rest


HEADER_EDITS = {
    "version_2": lambda h: h.update(version=2),
    "version_missing": lambda h: h.pop("version"),
    "mode_swapped": lambda h: h.update(mode={"binary": "text", "text": "binary"}[h["mode"]]),
    "train_count_doubled": lambda h: h["counts"].update(train=2 * h["counts"]["train"]),
    "counts_missing": lambda h: h.pop("counts"),
    "unknown_key": lambda h: h.update(extra=1),
}


@pytest.mark.parametrize("case", HEADER_EDITS)
@pytest.mark.parametrize("artefact", ["binary", "text"])
def test_dataset_header_is_the_one_its_config_gives(artefacts, tmp_path, capsys, artefact,
                                                     case):
    bad = tmp_path / "bad"
    bad.write_bytes(_edit_dataset_header(artefacts[artefact].read_bytes(), HEADER_EDITS[case]))
    with pytest.raises(CheckpointError, match="the one its config and mode give"):
        load_dataset(str(bad))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(artefacts["checkpoint"]), "--data", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invgate: error: {bad}: header ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("edit", ["equal_targets", "label_99", "planted_7"])
@pytest.mark.parametrize("artefact", ["binary", "text"])
def test_invalid_row_is_a_one_line_error(artefacts, tmp_path, capsys, artefact, edit):
    """A row that breaks a dataset check: a planted row whose two wrong-class
    targets are equal, a label outside [0, 4), or a planted row whose
    `planted` word is 7 rather than 1."""
    train = load_dataset(str(artefacts["binary"])).splits["train"]
    row = int(np.argmax(train.planted))
    assert train.planted[row]
    word, value = {"equal_targets": (3, int(train.targets[row, 0])), "label_99": (0, 99),
                   "planted_7": (1, 7)}[edit]
    blob = artefacts[artefact].read_bytes()
    if artefact == "binary":    # magic, version, header length, header, 34 words a row
        at = 16 + int.from_bytes(blob[8:16], "little") + 8 * (34 * row + word)
        blob = blob[:at] + np.int64(value).tobytes() + blob[at + 8:]
    else:                       # two header lines, one line a row
        lines = blob.split(b"\n")
        fields = lines[2 + row].split(b" ")
        fields[word] = str(value).encode()
        lines[2 + row] = b" ".join(fields)
        blob = b"\n".join(lines)
    bad = tmp_path / "bad"
    bad.write_bytes(blob)
    with pytest.raises(CheckpointError, match=f"train row {row}: "):
        load_dataset(str(bad))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(artefacts["checkpoint"]), "--data", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invgate: error: {bad}: train row {row}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["eval", "--checkpoint", "{missing}", "--data", "{binary}"],
    ["eval", "--checkpoint", "{checkpoint}", "--data", "{missing}"],
    ["train", "--config", "{config}", "--data", "{missing}", "--out", "{out}"],
], ids=["eval_checkpoint", "eval_data", "train_data"])
def test_missing_artefact_is_a_one_line_error(artefacts, tiny_config_file, tmp_path, capsys,
                                              argv):
    names = {"missing": tmp_path / "missing", "config": tiny_config_file[0],
             "out": tmp_path / "out", **artefacts}
    assert main([a.format(**names) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invgate: error: ") and str(tmp_path / "missing") in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_train_eval_pipeline(tmp_path, tiny_config_file, capsys):
    cfg_path, cfg = tiny_config_file
    # IRMv1, so that --lambda sets a weight the run reads
    cfg_path.write_text(json.dumps(cfg.replace(irm_variant="irmv1").to_dict()))
    data = tmp_path / "data.igds"
    main(["generate", "--config", str(cfg_path), "--out", str(data)])
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(data),
                 "--out", str(run_dir), "--fusion", "add", "--lambda", "2.0"]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["fusion_mode"] == "additive"
    assert manifest["config"]["irm_lambda"] == 2.0
    assert manifest["dataset"] == str(data)

    eval_dir = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.igck"),
                 "--data", str(data), "--phi", "1.0", "--fusion", "mul",
                 "--out", str(eval_dir)]) == 0
    out = capsys.readouterr().out
    assert "acc_joint" in out
    assert (eval_dir / "per_sample.csv").exists()


def test_flag_for_a_weight_the_run_does_not_read_is_a_one_line_error(tmp_path, capsys):
    # the default config runs V-REx, which reads no irm_lambda
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(DEFAULT_CONFIG), "--out", str(run_dir),
                 "--lambda", "50"]) == 2
    assert capsys.readouterr().err == (
        "invgate: error: irm_lambda 50.0 is read only with enable_step2 and irm_variant "
        "'irmv1': leave it at its default 5.0\n")
    assert not run_dir.exists()


def test_train_flag_overrides_disable_steps(tmp_path, tiny_config_file):
    cfg_path, cfg = tiny_config_file
    # (what the file tunes, the flags, what the manifest echoes): a flag that
    # turns a step off drops what the file tuned for that step
    cases = [
        ({"epochs": 6, "mining_warmup": 5},
         ["--no-step1", "--no-step2", "--no-align", "--seed", "9"],
         {"enable_step1": False, "enable_step2": False, "seed": 9}),
        ({"mining_rho": 0.4}, ["--no-step1"],
         {"enable_step1": False, "mining_warmup": 5, "mining_rho": 0.25}),
        ({"include_25d": True, "irm_variant": "irmv1", "irm_lambda": 2.0}, ["--no-step2"],
         {"enable_step2": False, "include_25d": False, "irm_variant": "v_rex",
          "irm_lambda": 5.0}),
        ({"use_view_attention": True, "align_alpha": 0.5}, ["--no-align"],
         {"enable_align": False, "use_view_attention": False, "align_alpha": 1.0}),
    ]
    for i, (tuned, flags, echoed) in enumerate(cases):
        cfg_path.write_text(json.dumps(cfg.replace(**tuned).to_dict()))
        run_dir = tmp_path / f"run{i}"
        assert main(["train", "--config", str(cfg_path), "--out", str(run_dir), *flags]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert {k: manifest["config"][k] for k in echoed} == echoed


def test_env_seed_override_recorded(tmp_path, tiny_config_file, monkeypatch):
    cfg_path, _ = tiny_config_file
    monkeypatch.setenv("INVGATE_SEED", "42")
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 42
    assert manifest["seed_env_override"] is True
    assert manifest["effective_seed"] == 42


def test_non_integer_env_seed_is_a_one_line_error(tmp_path, tiny_config_file, monkeypatch,
                                                  capsys):
    cfg_path, _ = tiny_config_file
    monkeypatch.setenv("INVGATE_SEED", "abc")
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err == "invgate: error: INVGATE_SEED must be an integer, got 'abc'\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("edit,argv,env,message", [
    ({"epochs": "5"}, [], None, "epochs must be an integer, got '5'"),
    ({"epochs": True}, [], None, "epochs must be an integer, got True"),
    ({"batch_size": 2.5}, [], None, "batch_size must be an integer, got 2.5"),
    ({"encoder_hidden": 5}, [], None, "encoder_hidden must be [], got 5: a retired field, "
     "fixed at the value the rest of the config gives"),
    ({"enable_step1": "no"}, [], None, "enable_step1 must be true or false, got 'no'"),
    ({"irm_lambda": "5"}, [], None, "irm_lambda must be a finite number, got '5'"),
    ({"base_lr": 10**400}, [], None, f"base_lr must be a finite number, got {10**400}"),
    ({}, ["--seed", "-1"], None, "seed must be >= 0, got -1"),
    ({}, [], "-3", "seed must be >= 0, got -3"),
], ids=["epochs_string", "epochs_bool", "batch_size_float", "encoder_hidden_int",
        "enable_step1_string", "irm_lambda_string", "base_lr_beyond_float",
        "negative_seed_flag", "negative_env_seed"])
def test_wrongly_typed_config_is_a_one_line_error(tmp_path, tiny_config_file, monkeypatch,
                                                  capsys, edit, argv, env, message):
    cfg_path, cfg = tiny_config_file
    cfg_path.write_text(json.dumps({**cfg.to_dict(), **edit}))
    if env is not None:
        monkeypatch.setenv("INVGATE_SEED", env)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run_dir), *argv]) == 2
    assert capsys.readouterr().err == f"invgate: error: {message}\n"
    assert not run_dir.exists()


def _with_header_config(checkpoint, path, edits: dict):
    """Write `checkpoint` to `path` with `edits` in its header config."""
    blob = checkpoint.read_bytes()
    end = 16 + int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:end])
    header["config"].update(edits)
    raw = canonical_json(header).encode()
    path.write_bytes(blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[end:])
    return path


# a value each retired key took in some earlier file, other than its one value
# (tiny_config_file's dim is 10), and the steps it is read with: the last two
# are invariance_on_all at each value, on steps that give it the other one
# (without step 1, at the default mining warm-up)
RETIRED_OTHER = {"encoder_hidden": ([7], "[]"), "encoder_init": ("random", '"identity"'),
                 "output_dim": (12, "10"), "head2d_mode": ("affine", '"cosine"'),
                 "head3d_mode": ("affine", '"cosine"'), "head_scale": (0.5, "0.25"),
                 "view_attention_hidden": (64, "32"), "mining_period": (2, "1"),
                 "inv_theta": (1.0, "5.0"), "align_tau": (0.5, "2.0"), "mining_topk": (3, "5"),
                 "view_attention_delta": (0.25, "0.5"),
                 "invariance_on_all": (True, "false"),
                 "invariance_on_all-step2_only": (False, "true",
                                                  {"enable_step1": False, "mining_warmup": 5})}


@pytest.mark.parametrize("case", RETIRED_OTHER)
@pytest.mark.parametrize("command", ["train", "eval"])
def test_retired_key_at_another_value_is_a_one_line_error(artefacts, tiny_config_file, tmp_path,
                                                          capsys, command, case):
    name = case.split("-")[0]
    value, one, *steps = RETIRED_OTHER[case]
    edits = {**(steps[0] if steps else {}), name: value}
    if command == "train":
        cfg_path, cfg = tiny_config_file
        cfg_path.write_text(json.dumps({**cfg.to_dict(), **edits}))
        argv = ["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]
    else:   # the trained checkpoint with the key in its header config
        ckpt = _with_header_config(artefacts["checkpoint"], tmp_path / "old.igck", edits)
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(artefacts["binary"])]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invgate: error: ") and err.count("\n") == 1
    assert f"{name} must be {one}, got {json.dumps(value)}: a retired field" in err
    assert not (tmp_path / "run").exists()


def test_rejected_header_config_prints_its_own_message(artefacts, tmp_path, capsys):
    ckpt = _with_header_config(artefacts["checkpoint"], tmp_path / "old.igck",
                               {"head_scale": 0.5})
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(artefacts["binary"])]) == 2
    assert capsys.readouterr().err == (
        f"invgate: error: {ckpt}: malformed header: head_scale must be 0.25, got 0.5: "
        "a retired field, fixed at the value the rest of the config gives\n")


@pytest.mark.parametrize("command", ["train", "eval"])
def test_dataset_that_does_not_fit_is_a_one_line_error(artefacts, tiny_config_file, tmp_path,
                                                       capsys, command):
    """A 5-class dataset against a 4-class config or checkpoint."""
    cfg_path, cfg = tiny_config_file
    five = tmp_path / "five.json"
    five.write_text(json.dumps(dataclasses.asdict(
        dataclasses.replace(cfg.generator, num_classes=5))))
    data = tmp_path / "five.igds"
    assert main(["generate", "--config", str(five), "--out", str(data)]) == 0
    capsys.readouterr()
    argv = (["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]
            if command == "train" else ["eval", "--checkpoint", str(artefacts["checkpoint"])])
    assert main([*argv, "--data", str(data)]) == 2
    source = "config" if command == "train" else "checkpoint"
    err = capsys.readouterr().err
    assert err == f"invgate: error: {source} num_classes 4 != dataset num_classes 5\n"
    assert not (tmp_path / "run").exists()


def test_ablate_grid(tmp_path, tiny_config_file, capsys):
    cfg_path, _ = tiny_config_file
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([
        {"fusion_mode": "multiplicative"},
        {"fusion_mode": "additive"},
    ]))
    out = tmp_path / "ablation"
    assert main(["ablate", "--config", str(cfg_path), "--grid", str(grid),
                 "--out", str(out)]) == 0
    csv = (out / "results.csv").read_text().strip().splitlines()
    assert len(csv) == 3
    assert csv[0].startswith("enable_step1,")


@pytest.mark.parametrize("content,message", [
    (None, "cannot read grid"),
    ('[{"fusion_mode": ', "cannot read grid"),
    ('{"rows": []}', "must be a list of override objects"),
    ("[1, 2]", "must be a list of override objects"),
    ('[{"fusion": "add"}]', "unknown config keys: ['fusion']"),
    ('[{"generator": {"seed": 3}}]', "cannot override 'generator'"),
    ('{"cells": [{}], "seeds": [1]}', "must be a list of override objects"),
], ids=["missing", "malformed", "wrong_shape", "not_objects", "unknown_key", "generator",
        "unread_key"])
def test_bad_grid_is_a_one_line_error(tmp_path, tiny_config_file, capsys, content, message):
    cfg_path, _ = tiny_config_file
    grid = tmp_path / "grid.json"
    if content is not None:
        grid.write_text(content)
    assert main(["ablate", "--config", str(cfg_path), "--grid", str(grid)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invgate: error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_gradcheck_exits_zero(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    passed, total = out.strip().splitlines()[-1].split()[0].split("/")
    assert passed == total and int(total) > 15

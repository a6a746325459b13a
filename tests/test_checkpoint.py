import json

import numpy as np
import pytest

from invgate.cli import main
from invgate.config import RunConfig
from invgate.data import GeneratorConfig, generate, save_dataset
from invgate.errors import CheckpointError, ContractError
from invgate.fusion import FusionConfig
from invgate.harness import (
    Trainer,
    TrainResult,
    evaluate_checkpoint,
    load_checkpoint,
    save_checkpoint,
)


def tiny_cfg(seed=0, **kw):
    gen = GeneratorConfig(num_classes=4, shots=4, invariant_dim=6, confound_dim=4,
                          num_views=2, seed=seed)
    defaults = dict(generator=gen, output_dim=10, epochs=3, batch_size=8,
                    mining_warmup=1, seed=seed)
    defaults.update(kw)
    return RunConfig(**defaults)


@pytest.fixture(scope="module")
def short_run():
    cfg = tiny_cfg()
    trainer = Trainer(cfg)
    return trainer, trainer.run()


def test_save_load_bit_identical_params(short_run, tmp_path):
    trainer, result = short_run
    p = tmp_path / "run.igck"
    save_checkpoint(str(p), result)
    _, model, opt, epoch = load_checkpoint(str(p))
    for name, param in result.model.named_params().items():
        assert model.named_params()[name].data.tobytes() == param.data.tobytes()
    assert epoch == result.cfg.epochs - 1
    for name, vel in result.optimizer.named_velocity().items():
        assert opt.named_velocity()[name].tobytes() == vel.tobytes()


def test_save_load_save_byte_stable(short_run, tmp_path):
    trainer, result = short_run
    p1, p2 = tmp_path / "a.igck", tmp_path / "b.igck"
    save_checkpoint(str(p1), result)
    cfg, model, opt, epoch = load_checkpoint(str(p1))
    save_checkpoint(str(p2), TrainResult(cfg=cfg, model=model, optimizer=opt,
                                         metrics=[], reports=[]))
    # epoch lives in optimizer state, which load restores
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_names_missing_array(short_run, tmp_path):
    trainer, result = short_run
    p = tmp_path / "run.igck"
    save_checkpoint(str(p), result)
    blob = p.read_bytes()
    p.write_bytes(blob[: len(blob) - 64])
    with pytest.raises(CheckpointError, match="truncated while reading array"):
        load_checkpoint(str(p))


def test_mismatched_config_names_offending_array(short_run, tmp_path):
    trainer, result = short_run
    p = tmp_path / "run.igck"
    save_checkpoint(str(p), result)
    import json

    import numpy as np
    raw = p.read_bytes()
    header_len = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    header = json.loads(raw[16: 16 + header_len].decode())
    header["config"]["output_dim"] = 12
    header["config"]["generator"]["invariant_dim"] = 8
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    p.write_bytes(raw[:8] + np.uint64(len(blob)).tobytes() + blob + raw[16 + header_len:])
    with pytest.raises(CheckpointError, match="shape mismatch for '"):
        load_checkpoint(str(p))


def _rewrite(path, edit_header=None, edit_payload=None):
    """Rewrite a saved checkpoint's header and payload, keeping the preamble valid."""
    raw = path.read_bytes()
    header_len = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    header = json.loads(raw[16: 16 + header_len].decode())
    payload = bytearray(raw[16 + header_len:])
    if edit_header is not None:
        edit_header(header)
    if edit_payload is not None:
        edit_payload(payload)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:8] + np.uint64(len(blob)).tobytes() + blob + bytes(payload))
    return header


def _nan_first_array(payload):
    payload[:8] = np.array([np.nan]).tobytes()


HEADER_EDITS = {
    "optimizer_unknown_key": (lambda h: h["optimizer"].update(bogus=1), None, "malformed header"),
    "optimizer_without_base_lr": (lambda h: h["optimizer"].pop("base_lr"), None,
                                  "malformed header"),
    "optimizer_not_an_object": (lambda h: h.update(optimizer=[1, 2]), None, "malformed header"),
    "optimizer_nan_base_lr": (lambda h: h["optimizer"].update(base_lr=float("nan")), None,
                              "malformed header"),
    "config_not_an_object": (lambda h: h.update(config=3), None, "malformed header"),
    "config_a_list_of_pairs": (lambda h: h.update(config=[["epochs", 3]]), None,
                               "malformed header"),
    "nan_in_first_array": (None, _nan_first_array, "non-finite values in array '{first}'"),
}


@pytest.mark.parametrize("case", HEADER_EDITS)
def test_malformed_header_field_is_a_one_line_error(short_run, tmp_path, capsys, case):
    trainer, result = short_run
    p, data = tmp_path / "run.igck", tmp_path / "data.igds"
    save_checkpoint(str(p), result)
    save_dataset(trainer.dataset, str(data))
    edit_header, edit_payload, message = HEADER_EDITS[case]
    header = _rewrite(p, edit_header, edit_payload)
    with pytest.raises(CheckpointError, match=message.format(first=header["arrays"][0]["name"])):
        load_checkpoint(str(p))
    assert main(["eval", "--checkpoint", str(p), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invgate: error: {p}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_not_a_checkpoint(tmp_path):
    p = tmp_path / "junk"
    p.write_bytes(b"hello world, definitely not a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(p))


def test_evaluate_checkpoint_dim_guard(short_run, tmp_path):
    trainer, result = short_run
    p = tmp_path / "run.igck"
    save_checkpoint(str(p), result)
    other = generate(GeneratorConfig(num_classes=4, shots=2, invariant_dim=4,
                                     confound_dim=4, num_views=2, seed=1))
    with pytest.raises(ContractError):
        evaluate_checkpoint(str(p), other, FusionConfig())


def test_evaluate_checkpoint_matches_live_model(short_run, tmp_path):
    trainer, result = short_run
    p = tmp_path / "run.igck"
    save_checkpoint(str(p), result)
    from invgate.harness import evaluate_model

    live = evaluate_model(result.model, trainer.dataset, FusionConfig())
    loaded = evaluate_checkpoint(str(p), trainer.dataset, FusionConfig())
    assert np.array_equal(live.pred_joint, loaded.pred_joint)
    assert live.aggregates() == loaded.aggregates()

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
    loaded = load_checkpoint(str(p))
    model, opt = loaded.model, loaded.optimizer
    for name, param in result.model.named_params().items():
        assert model.named_params()[name].data.tobytes() == param.data.tobytes()
    assert opt.state.epoch == result.cfg.epochs - 1
    for name, vel in result.optimizer.named_velocity().items():
        assert opt.named_velocity()[name].tobytes() == vel.tobytes()


def test_save_load_save_byte_stable(short_run, tmp_path):
    trainer, result = short_run
    p1, p2 = tmp_path / "a.igck", tmp_path / "b.igck"
    save_checkpoint(str(p1), result)
    save_checkpoint(str(p2), load_checkpoint(str(p1)))
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
    "optimizer_epoch_a_string": (lambda h: h["optimizer"].update(epoch="x"), None,
                                 "malformed header"),
    "optimizer_negative_epoch": (lambda h: h["optimizer"].update(epoch=-7), None,
                                 "malformed header"),
    "optimizer_lr_min_a_string": (lambda h: h["optimizer"].update(lr_min="x"), None,
                                  "malformed header"),
    "optimizer_fractional_total_epochs": (lambda h: h["optimizer"].update(total_epochs=2.5),
                                          None, "malformed header"),
    "optimizer_lr_min_above_base": (lambda h: h["optimizer"].update(lr_min=5.0), None,
                                    "malformed header.*lr_min must lie in"),
    "optimizer_negative_lr_min": (lambda h: h["optimizer"].update(lr_min=-0.001), None,
                                  "malformed header.*lr_min must lie in"),
    "epoch_null": (lambda h: h.update(epoch=None), None, "header epoch None is not"),
    "epoch_not_the_optimizers": (lambda h: h.update(epoch=0), None,
                                 "header epoch 0 is not the optimizer's epoch 2"),
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


def test_array_listed_twice_names_it(short_run, tmp_path):
    trainer, result = short_run
    p = tmp_path / "run.igck"
    save_checkpoint(str(p), result)
    header = _rewrite(p, lambda h: h["arrays"].append(h["arrays"][-1]))
    last = header["arrays"][-1]
    # the payload repeats the last block, so the file is whole and only the listing is wrong
    _rewrite(p, edit_payload=lambda b: b.extend(b[-8 * int(np.prod(last["shape"])):]))
    with pytest.raises(CheckpointError, match=f"array '{last['name']}' listed twice"):
        load_checkpoint(str(p))


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
    with pytest.raises(ContractError, match="checkpoint dim 10 != dataset dim 8"):
        evaluate_checkpoint(str(p), other, FusionConfig())
    five = generate(GeneratorConfig(num_classes=5, shots=2, invariant_dim=6,
                                    confound_dim=4, num_views=2, seed=1))
    with pytest.raises(ContractError, match="checkpoint num_classes 4 != dataset num_classes 5"):
        evaluate_checkpoint(str(p), five, FusionConfig())
    # without view attention the model takes any number of views
    three_views = generate(GeneratorConfig(num_classes=4, shots=2, invariant_dim=6,
                                           confound_dim=4, num_views=3, seed=1))
    assert len(evaluate_checkpoint(str(p), three_views, FusionConfig()).labels) == 8


def test_evaluate_checkpoint_view_guard_with_view_attention(tmp_path):
    p = tmp_path / "run.igck"
    save_checkpoint(str(p), Trainer(tiny_cfg(epochs=1, use_view_attention=True)).run())
    three_views = generate(GeneratorConfig(num_classes=4, shots=2, invariant_dim=6,
                                           confound_dim=4, num_views=3, seed=1))
    with pytest.raises(ContractError, match="checkpoint num_views 2 != dataset num_views 3"):
        evaluate_checkpoint(str(p), three_views, FusionConfig())


def test_evaluate_checkpoint_matches_live_model(short_run, tmp_path):
    trainer, result = short_run
    p = tmp_path / "run.igck"
    save_checkpoint(str(p), result)
    from invgate.harness import evaluate_model

    live = evaluate_model(result.model, trainer.dataset, FusionConfig())
    loaded = evaluate_checkpoint(str(p), trainer.dataset, FusionConfig())
    assert np.array_equal(live.pred_joint, loaded.pred_joint)
    assert live.aggregates() == loaded.aggregates()

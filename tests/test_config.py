import dataclasses
import itertools
import json
import sys
from pathlib import Path

import pytest

from invgate.config import READ_WHEN, RETIRED, RunConfig, load_config, upgrade_config
from invgate.data import GeneratorConfig
from invgate.errors import ContractError
from invgate.losses import IRM_VARIANTS

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


def read(data) -> RunConfig:
    """The config `data` gives, read as a config file is: upgraded, then built."""
    return RunConfig.from_dict(upgrade_config(data))


def test_defaults_are_consistent():
    # the retired output_dim's one value is the default generator's dim
    cfg = RunConfig()
    assert read({"output_dim": cfg.generator.dim}) == cfg


def test_dict_roundtrip():
    cfg = RunConfig(seed=7, irm_variant="irmv1", irm_lambda=2.5)
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_file_roundtrip(tmp_path):
    cfg = RunConfig(seed=3, fusion_mode="additive")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict()))
    assert load_config(str(p)) == cfg


def test_partial_config_fills_defaults(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"seed": 9, "generator": {"num_classes": 5, "shots": 4}}))
    cfg = load_config(str(p))
    assert cfg.seed == 9
    assert cfg.generator.num_classes == 5
    assert cfg.epochs == 50


def test_unknown_keys_rejected():
    with pytest.raises(ContractError, match="unknown config keys"):
        RunConfig.from_dict({"learning_rate": 0.1})
    with pytest.raises(ContractError, match="unknown generator keys"):
        RunConfig.from_dict({"generator": {"n_classes": 5}})


def test_step2_requires_step1_or_override():
    # a file's invariance_on_all must be what the steps give: step 2 without step 1
    for step1, step2 in itertools.product((False, True), repeat=2):
        acts = step2 and not step1
        steps = {"enable_step1": step1, "enable_step2": step2}
        assert read({**steps, "invariance_on_all": acts}) == RunConfig(**steps)
        with pytest.raises(ContractError, match=rf"^invariance_on_all must be "
                                                rf"{json.dumps(acts)}, got "):
            read({**steps, "invariance_on_all": not acts})
        # the 2.5D environment exists only in step 2's invariance term
        if step2:
            RunConfig(enable_step1=step1, include_25d=True)
        else:
            with pytest.raises(ContractError, match="^include_25d True is read only with enable_step2: "):
                RunConfig(enable_step1=step1, enable_step2=False, include_25d=True)


def test_step1_needs_a_mining_epoch():
    # mining first runs at epoch mining_warmup; a run that ends before it
    # would train as if step 1 were off
    RunConfig(epochs=6, mining_warmup=5)
    for epochs in (4, 5):
        with pytest.raises(ContractError, match=r"^enable_step1 needs mining_warmup < epochs: "):
            RunConfig(epochs=epochs, mining_warmup=5)
    RunConfig(epochs=5, mining_warmup=5, enable_step1=False)


def test_identity_init_needs_matching_dims():
    # the one encoder is a square identity-initialised map, so a file's
    # output_dim must be its generator's dim and its encoder_hidden empty
    with pytest.raises(ContractError, match=r"^output_dim must be 20, got 12: "):
        read({"output_dim": 12})
    with pytest.raises(ContractError, match=r"^encoder_hidden must be \[\], got \[32\]: "):
        read({"encoder_hidden": [32]})
    cfg = read({"output_dim": 12, "encoder_hidden": [],
                "generator": {"invariant_dim": 4, "confound_dim": 8}})
    assert cfg.generator.dim == 12


# a value each retired key had in some earlier file, other than its one value;
# invariance_on_all's other value is the negation of the one its steps give
RETIRED_OTHER = {"encoder_hidden": [7], "encoder_init": "random", "output_dim": 12,
                 "head2d_mode": "affine", "head3d_mode": "affine", "head_scale": 0.5,
                 "view_attention_hidden": 64, "mining_period": 2, "inv_theta": 1.0,
                 "align_tau": 0.5, "mining_topk": 3, "view_attention_delta": 0.25,
                 "base_lr": 0.05, "weight_decay": 0.0, "momentum": 0.0, "rex_beta": 0.5}
# further values once rejected by the retired fields' own range rules, each
# now another value than the key's one
RETIRED_WRONG = [("align_tau", 0.0), ("inv_theta", -5.0), ("inv_theta", 0.0),
                 ("mining_period", 0), ("mining_topk", 0), ("head_scale", -1.0),
                 ("encoder_init", "xavier"), ("output_dim", 0), ("encoder_hidden", 5),
                 ("encoder_hidden", (-2,)), ("encoder_hidden", (0,)), ("encoder_hidden", [4.0]),
                 ("head2d_mode", "linear"), ("head3d_mode", "linear"),
                 ("view_attention_hidden", -1), ("view_attention_delta", 0.0),
                 ("view_attention_delta", 1.0), ("view_attention_delta", 2.0),
                 ("base_lr", 0.0), ("weight_decay", -1.0), ("momentum", 1.0),
                 ("rex_beta", -0.5)]


def _as_is(value):
    return value


@pytest.mark.parametrize("value", [{1}, set(), (1 + 2j)], ids=["set", "empty_set", "complex"])
def test_retired_key_holding_what_no_file_can_hold_is_rejected(value):
    # as a live field's wrong type is: the error names the key and the value
    with pytest.raises(ContractError) as err:
        read({"seed": value})
    assert str(err.value) == f"seed must be an integer, got {value!r}"
    for name in ("encoder_hidden", "inv_theta"):
        one = json.dumps(RETIRED[name](RunConfig()))
        with pytest.raises(ContractError) as err:
            read({name: value})
        assert str(err.value) == (f"{name} must be {one}, got {value!r}: a retired field, "
                                  "fixed at the value the rest of the config gives")


@pytest.mark.parametrize("name,other,spell", [
    *(pytest.param(name, RETIRED_OTHER.get(name), _as_is, id=name) for name in sorted(RETIRED)),
    *(pytest.param(name, other, _as_is, id=f"{name}={other}") for name, other in RETIRED_WRONG),
    # a float key's one value spelled as an integer, as a live float field takes one
    pytest.param("align_tau", RETIRED_OTHER["align_tau"], int, id="align_tau=2"),
    pytest.param("inv_theta", RETIRED_OTHER["inv_theta"], int, id="inv_theta=5"),
    # a Python grid cell's tuple, which a file holds as a list
    pytest.param("encoder_hidden", RETIRED_OTHER["encoder_hidden"], tuple,
                 id="encoder_hidden=()"),
])
def test_retired_key_loads_only_at_its_one_value(name, other, spell):
    gen = GeneratorConfig(invariant_dim=5, confound_dim=3)
    for step1, step2 in itertools.product((False, True), repeat=2):
        steps = {"enable_step1": step1, "enable_step2": step2}
        want = RunConfig(generator=gen, **steps)
        one = RETIRED[name](want)
        wrong = not one if other is None else other
        data = {"generator": dataclasses.asdict(gen), **steps}
        cfg = read({**data, name: spell(one)})
        assert cfg == want and name not in cfg.to_dict()
        with pytest.raises(ContractError) as err:
            read({**data, name: wrong})
        assert str(err.value) == (f"{name} must be {json.dumps(one)}, got {json.dumps(wrong)}: "
                                  "a retired field, fixed at the value the rest of the config "
                                  "gives")
    # only an earlier file may name it: RunConfig.from_dict, keyword
    # construction and replace never do
    with pytest.raises(ContractError, match=rf"^unknown config keys: \['{name}'\]"):
        RunConfig.from_dict({name: one})
    with pytest.raises(TypeError):
        RunConfig(**{name: one})
    with pytest.raises(ContractError, match=rf"^unknown config keys: \['{name}'\]"):
        RunConfig().replace(**{name: one})


def test_earlier_default_config_loads_to_the_same_config():
    # the file as written before the last retirement (today's keys and four
    # more), before the one ahead of it (four more again), before the one
    # ahead of that (four more again), and before that one (five more again)
    parent = json.loads(DEFAULT_CONFIG.read_text())
    parent.update({"base_lr": 0.01, "weight_decay": 0.0001, "momentum": 0.9, "rex_beta": 1.0})
    grandparent = {**parent, "inv_theta": 5.0, "align_tau": 2.0, "mining_topk": 5,
                   "view_attention_delta": 0.5}
    older = {**grandparent, "head_scale": 0.25, "view_attention_hidden": 32,
             "mining_period": 1, "invariance_on_all": False}
    earlier = {**older, "encoder_hidden": [], "encoder_init": "identity", "output_dim": 20,
               "head2d_mode": "cosine", "head3d_mode": "cosine"}
    assert (read(parent) == read(grandparent) == read(older) == read(earlier)
            == load_config(str(DEFAULT_CONFIG)) == RunConfig())
    assert sorted(earlier) == sorted([*RunConfig().to_dict(), *RETIRED])


def test_generator_knobs_validated():
    with pytest.raises(ContractError):
        GeneratorConfig(p_conflict=1.5)
    with pytest.raises(ContractError):
        GeneratorConfig(confound_shared_frac=-0.1)
    for name in ("sigma_invariant", "sigma_confound"):
        with pytest.raises(ContractError, match=f"{name} must be >= 0"):
            GeneratorConfig(**{name: -0.01})
    GeneratorConfig(sigma_invariant=0.0, sigma_confound=0.0)


def test_replace_revalidates():
    cfg = RunConfig()
    with pytest.raises(ContractError):
        cfg.replace(mining_rho=0.0)


@pytest.mark.parametrize("data", [[["epochs", 3]], "epochs", 3, {"generator": [1]},
                                  {"generator": None, "epochs": 1}],
                         ids=["pairs", "string", "number", "generator_list", "generator_null"])
def test_non_object_config_rejected(data):
    with pytest.raises(ContractError, match="must be a JSON object"):
        RunConfig.from_dict(data)


def test_replace_rejects_unknown_keys():
    with pytest.raises(ContractError, match="unknown config keys"):
        RunConfig().replace(learning_rate=0.1)


@pytest.mark.parametrize("overrides", [
    {"irm_variant": "irm"},
    {"irm_variant": "mm_rex", "rex_lambda_min": 0.9},
    {"include_25d": True, "rex_lambda_min": 0.4},
    {"fusion_phi": 0.0},
    {"rex_beta": -0.5},
    {"irm_lambda": -1.0},
    {"mining_warmup": 0},
    {"posterior_p2": 0.0},
    {"posterior_p3": 1.5},
    {"base_lr": 0.0},
    {"base_lr": float("nan")},
    {"weight_decay": -1.0},
    {"momentum": 1.0},
    {"fusion_mode": "product"},
    {"align_alpha": float("nan")},
    {"irm_variant": "mm_rex", "rex_lambda_min": float("nan")},
    {"generator": {"sigma_invariant": float("nan")}},
    {"generator": {"sigma_invariant": -0.3}},
    {"generator": {"sigma_confound": -0.05}},
    {"epochs": True},
    {"seed": -1},
    {"generator": {"seed": -1}},
], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
def test_rejected_at_construction(overrides):
    # read as a config file is, so a retired key is held to its one value
    with pytest.raises(ContractError):
        read(overrides)


# a value of another type than each field's, chosen by the field's annotation
_WRONG_TYPE = {"int": 2.5, "float": "0.5", "bool": "no", "str": 5}
# the same for the retired keys, which only a file names
_RETIRED_WRONG_TYPE = {"encoder_hidden": ["a"], "encoder_init": 5, "output_dim": 2.5,
                       "head2d_mode": 5, "head3d_mode": 5, "head_scale": "0.5",
                       "view_attention_hidden": 2.5, "mining_period": 2.5,
                       "invariance_on_all": "no", "inv_theta": "5.0", "align_tau": "2.0",
                       "mining_topk": 2.5, "view_attention_delta": "0.5", "base_lr": "0.01",
                       "weight_decay": "0.0001", "momentum": "0.9", "rex_beta": "1.0"}
# values a live field of the retired key's type rejects, though one equals its
# one value, or which no float field takes
_RETIRED_WRONG_SPELLING = [("invariance_on_all", 0), ("output_dim", 20.0),
                           ("align_tau", float("inf")), ("inv_theta", float("nan")),
                           ("base_lr", float("nan"))]


@pytest.mark.parametrize("cls,name,value", [
    *(pytest.param(cls, f.name, _WRONG_TYPE[f.type], id=f"{cls.__name__}-{f.name}")
      for cls in (RunConfig, GeneratorConfig)
      for f in dataclasses.fields(cls) if f.type in _WRONG_TYPE),
    *(pytest.param(RunConfig, name, value, id=f"RunConfig-{name}")
      for name, value in _RETIRED_WRONG_TYPE.items()),
    *(pytest.param(RunConfig, name, value, id=f"RunConfig-{name}={value}")
      for name, value in _RETIRED_WRONG_SPELLING),
])
def test_wrongly_typed_field_rejected(cls, name, value):
    with pytest.raises(ContractError, match=f"^{name} must be "):
        if name in RETIRED:
            read({name: value})
        else:
            cls(**{name: value})


def test_boundary_values_accepted():
    RunConfig(irm_variant="mm_rex", rex_lambda_min=0.5)
    RunConfig(irm_variant="irmv1", irm_lambda=0.0)
    RunConfig(posterior_p2=1.0, posterior_p3=1.0, mining_warmup=1)
    RunConfig(irm_variant="mm_rex", include_25d=True, rex_lambda_min=1.0 / 3.0)
    # a fusion alias is stored as the mode it names, so one run has one config
    assert RunConfig(fusion_mode="add") == RunConfig(fusion_mode="additive")
    # a float field keeps an int as given, so a manifest keeps its bytes
    cfg = RunConfig.from_dict({"fusion_phi": 1, "generator": {"p_conflict": 0}})
    assert type(cfg.to_dict()["fusion_phi"]) is int and type(cfg.generator.p_conflict) is int


def test_alignment_needs_two_rows_a_batch():
    # nt_xent_align runs only on batches of 2 or more rows, so at batch_size 1
    # alignment would train nothing
    with pytest.raises(ContractError, match="^enable_align needs batch_size >= 2: "):
        RunConfig(batch_size=1)
    RunConfig(batch_size=1, enable_align=False)
    RunConfig(batch_size=2)


def test_view_attention_needs_alignment():
    # no other term's gradient reaches the view attention
    with pytest.raises(ContractError, match="^use_view_attention True is read only with enable_align: "):
        RunConfig(use_view_attention=True, enable_align=False, enable_step2=False)
    RunConfig(use_view_attention=True, enable_align=True, enable_step1=False,
              enable_step2=False)


def test_generator_must_be_a_generator_config():
    with pytest.raises(ContractError, match="^generator must be a GeneratorConfig, got "):
        RunConfig(generator={"seed": 1})


@pytest.mark.parametrize("overrides,message", [
    # alignment is at most log(32) + 2 * 2.0
    ({"align_alpha": sys.float_info.max},
     "align_alpha 1.7976931348623157e+308 overflows: align_alpha times its term's worst case "
     "7.46"),
    # two environments' IRMv1 penalties, each at most 4 * irm_lambda
    ({"irm_variant": "irmv1", "irm_lambda": sys.float_info.max},
     "irm_lambda 1.7976931348623157e+308 overflows: irm_lambda times its term's worst case 8 "),
    # a third environment: 12 * irm_lambda overflows where 8 * irm_lambda would not
    ({"irm_variant": "irmv1", "include_25d": True, "irm_lambda": sys.float_info.max / 11},
     "irm_lambda 1.6342664862384688e+307 overflows: irm_lambda times its term's worst case 12 "),
], ids=["align_alpha", "irm_lambda", "irm_lambda_25d"])
def test_overflowing_exponentials_rejected(overrides, message):
    with pytest.raises(ContractError) as err:
        RunConfig(**overrides)
    assert str(err.value).startswith(message)


# each field some term reads only under one condition: a legal value other
# than its default, the settings under which it is read, and the condition as
# its error names it
READ_CASES = {
    "irm_lambda": (2.0, {"enable_step2": True, "irm_variant": "irmv1"},
                   "enable_step2 and irm_variant 'irmv1'"),
    "rex_lambda_min": (0.2, {"enable_step2": True, "irm_variant": "mm_rex"},
                       "enable_step2 and irm_variant 'mm_rex'"),
    "irm_variant": ("irmv1", {"enable_step2": True}, "enable_step2"),
    "align_alpha": (0.5, {"enable_align": True}, "enable_align"),
    "n_3d_augments": (2, {"enable_step2": True}, "enable_step2"),
    "include_25d": (True, {"enable_step2": True}, "enable_step2"),
    "use_view_attention": (True, {"enable_align": True}, "enable_align"),
    "mining_rho": (0.5, {"enable_step1": True}, "enable_step1"),
    "posterior_p2": (0.3, {"enable_step1": True}, "enable_step1"),
    "posterior_p3": (0.7, {"enable_step1": True}, "enable_step1"),
    "mining_warmup": (3, {"enable_step1": True}, "enable_step1"),
}


@pytest.mark.parametrize("name", sorted(READ_CASES))
def test_field_leaves_its_default_only_where_a_term_reads_it(name):
    assert sorted(READ_WHEN) == sorted(READ_CASES)
    value, needs, when = READ_CASES[name]
    default = getattr(RunConfig(), name)
    for flags in itertools.product((False, True), repeat=3):
        kw = dict(zip(("enable_step1", "enable_step2", "enable_align"), flags))
        # the variant is read only with step 2
        for variant in IRM_VARIANTS if kw["enable_step2"] else (RunConfig.irm_variant,):
            kw["irm_variant"] = variant
            RunConfig(**{**kw, name: default})
            if all(kw[k] == v for k, v in needs.items()):
                assert getattr(RunConfig(**{**kw, name: value}), name) == value
                continue
            with pytest.raises(ContractError) as err:
                RunConfig(**{**kw, name: value})
            assert str(err.value) == (f"{name} {value!r} is read only with {when}: leave it "
                                      f"at its default {default!r}")


@pytest.mark.parametrize("overrides,when", [
    ({"enable_align": False, "align_alpha": sys.float_info.max}, "enable_align"),
    ({"irm_variant": "v_rex", "irm_lambda": sys.float_info.max},     # REx reads no lambda
     "enable_step2 and irm_variant 'irmv1'"),
    ({"enable_step2": False, "irm_variant": "irmv1", "irm_lambda": sys.float_info.max},
     "enable_step2 and irm_variant 'irmv1'"),
], ids=["alpha_align_off", "lambda_v_rex", "lambda_step2_off"])
def test_unread_weight_is_rejected_before_its_bound(overrides, when):
    # the bounds hold unconditionally, since an unread weight keeps its default
    name = list(overrides)[-1]
    with pytest.raises(ContractError, match=rf"^{name} 1.7976931348623157e\+308 is read only "
                                            rf"with {when}: "):
        RunConfig(**overrides)

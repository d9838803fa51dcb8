import pytest

from spinchain import ConfigError, RunConfig, parse_input_file, parse_input_text
from spinchain.config import load_field_samples, validate_config

FULL_INPUT = """\
# two-site chain with a transverse drive
Jx = 0.0
Jy = 0.0
Jz = 1.0
h_ext = 2.0
ext_dir = x
num_qubits = 3
initial_spins = up, down, up
delta_t = 0.05
steps = 20
QCQS = simulator
shots = 1024
noise_choice = false
device_choice =  local
plot_flag = true
time_dep_flag = true
freq = 0.25
backend = ibm
compile = domain_specific
units = ev_fs
seed = 7
"""


def test_defaults():
    config = parse_input_text("")
    assert config == RunConfig()
    assert config.num_qubits == 2
    assert config.qcqs == "simulator"
    assert config.compile_mode == "none"
    assert config.plot_flag is True


def test_full_file_parses_every_key():
    config = parse_input_text(FULL_INPUT)
    assert config.jz == 1.0
    assert config.h_ext == 2.0
    assert config.ext_dir == "x"
    assert config.num_qubits == 3
    assert config.initial_spins == ("up", "down", "up")
    assert config.delta_t == 0.05
    assert config.steps == 20
    assert config.shots == 1024
    assert config.noise_choice is False
    assert config.device_choice == "local"
    assert config.time_dep_flag is True
    assert config.freq == 0.25
    assert config.backend == "ibm"
    assert config.compile_mode == "domain_specific"
    assert config.units == "ev_fs"
    assert config.seed == 7


def test_comments_and_blank_lines():
    config = parse_input_text("\n# full line comment\nJx = 1.5 # inline comment\n\n")
    assert config.jx == 1.5


def test_spins_accept_numeric_aliases():
    config = parse_input_text("num_qubits = 2\ninitial_spins = 0,1\n")
    assert config.initial_spins == ("0", "1")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("J_x = 1\n", "line 1: unknown key 'J_x'"),
        ("Jx = 1\nJx = 2\n", "line 2: duplicate key 'Jx'"),
        ("Jx = abc\n", "line 1: Jx expects a number"),
        ("steps = 1.5\n", "line 1: steps expects an integer"),
        ("plot_flag = maybe\n", "line 1: plot_flag expects true or false"),
        ("Jx =\n", "line 1: Jx has no value"),
        ("just words\n", "line 1: expected 'key = value'"),
        ("\nJx = 1\next_dir = q\n", "line 3: ext_dir must be one of x, y, z"),
        ("initial_spins = up, sideways\n", "entries must be up/down/0/1"),
        ("Jx = inf\n", "line 1: Jx must be finite"),
        ("QCQS = emulator\n", "QCQS must be one of simulator, computer"),
        ("compile = fast\n", "compile must be one of none, generic, domain_specific"),
    ],
)
def test_line_numbered_errors(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_input_text(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("num_qubits = 0\n", "num_qubits must be between 1 and 24"),
        ("num_qubits = 25\n", "num_qubits must be between 1 and 24"),
        ("num_qubits = 3\ninitial_spins = up,down\n", "lists 2 entries"),
        ("delta_t = 0\n", "delta_t must be positive"),
        ("delta_t = -0.1\n", "delta_t must be positive"),
        ("steps = -1\n", "steps must be non-negative"),
        ("shots = -5\n", "shots must be non-negative"),
        ("QCQS = computer\n", "requires shots >= 1"),
        ("noise_choice = true\n", "noise_choice requires shots >= 1"),
        ("compile = generic\n", "compile requires backend"),
        (
            "time_dep_flag = true\nfreq = 1.0\ncustom_time_dep = f.csv\n",
            "mutually exclusive",
        ),
    ],
)
def test_cross_field_validation(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_input_text(text)
    assert fragment in str(err.value)


def test_validate_config_collects_all_problems():
    config = RunConfig(num_qubits=0, delta_t=-1.0, steps=-2)
    problems = validate_config(config)
    assert len(problems) == 3


def test_parse_input_file(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("Jz = 1\nh_ext = 0.5\n")
    config = parse_input_file(str(path))
    assert config.jz == 1.0 and config.h_ext == 0.5


# ---------------------------------------------------------------------------
# Tabulated drive files


def test_field_samples_basic(tmp_path):
    path = tmp_path / "drive.csv"
    path.write_text("0.0,1.0\n0.5,0.8\n1.0,0.2\n")
    assert load_field_samples(str(path)) == ((0.0, 1.0), (0.5, 0.8), (1.0, 0.2))


def test_field_samples_header_and_comments(tmp_path):
    path = tmp_path / "drive.csv"
    path.write_text("time,field\n# ramp\n0.0,1.0\n1.0,0.0\n")
    assert load_field_samples(str(path)) == ((0.0, 1.0), (1.0, 0.0))
    # the header is the first line that is not a comment
    path.write_text("# profile\ntime,field\n0,1\n")
    assert load_field_samples(str(path)) == ((0.0, 1.0),)


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("0.0,1.0\n0.0,0.5\n", "strictly increasing"),
        ("0.0,1.0\n-1.0,0.5\n", "strictly increasing"),
        ("", "no samples"),
        ("time,field\n", "no samples"),
        ("0.0,1.0\nbad,row\n", "line 2"),
        # a header has no number in it: a first row with one is a bad data row
        ("0,1x\n1,2\n2,3\n", "line 1: expected numeric"),
        ("time,1\n1,2\n", "line 1: expected numeric"),
        ("# profile\n0,1x\n1,2\n", "line 2: expected numeric"),
        ("0.0\n", "expected 'time,field'"),
        ("0.0,1.0,2.0\n", "expected 'time,field'"),
    ],
)
def test_field_samples_errors(tmp_path, content, fragment):
    path = tmp_path / "drive.csv"
    path.write_text(content)
    with pytest.raises(ConfigError) as err:
        load_field_samples(str(path))
    assert fragment in str(err.value)

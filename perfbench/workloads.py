"""The benchmark's workloads: configs, expected outcomes, pinned digests.

Each workload is one shipped acceptance claim run through the ``mvsde``
CLI from an INI config, cut down so that one driver run takes a few
seconds. The benchmark seed s maps to the config seed
BASE_SEED + SEED_STRIDE * s: seed 0 is the shipped default seed, and
since repetition m runs on config seed + m, distinct benchmark seeds
share no repetition. At seed 0 the SHA-256 of the workload's
``*_errors.csv`` and the digest of its report without the backend field
must match the pinned ones; at other seeds only the exit code and the
divergence pattern are checked.
See README.md for why each workload exists and which layers it loads.
"""

import hashlib
import json
import os

BASE_SEED = 12345
SEED_STRIDE = 1000
DEFAULT_SEED = 0


def report_digest(report):
    """SHA-256 of a parsed report without its backend field.

    The report echoes the active backend; everything else in it must be
    the same on both backends, so it is hashed in canonical JSON form.
    """
    body = dict(report, config=dict(report["config"]))
    body["config"].pop("backend", None)
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    def __init__(self, name, command, threads, reps, ini, report,
                 expect_plain_diverged, csv_digest, report_digest):
        self.name = name
        self.command = command
        self.threads = threads
        self.reps = reps
        self._ini = ini
        self.report = report
        # True: the plain arm of every rep must diverge (moment-long);
        # False: no rep of any level or arm may diverge
        self.expect_plain_diverged = expect_plain_diverged
        self.csv_digest = csv_digest
        self.report_digest = report_digest

    def ini(self, seed):
        return self._ini.format(seed=BASE_SEED + SEED_STRIDE * seed,
                                reps=self.reps,
                                experiment=self.command)

    def check(self, seed, exit_code, report, csv_bytes):
        """(failed reps, problems) of one driver run.

        At the default seed the run must exit 0 with verdict "pass" and
        the pinned digest. At other seeds exit code 2 (a tolerance band
        missed) is accepted: at these cut-down rep counts the fitted
        slope is a random variable, and poc-rate-d3's left its band on
        some seeds. A wrong exit code, verdict or digest fails every
        rep; otherwise a rep fails where it diverged against
        expectation.
        """
        problems = []
        codes = (0,) if seed == DEFAULT_SEED else (0, 2)
        if exit_code not in codes or report is None:
            problems.append("exit code %r, expected %s"
                            % (exit_code, " or ".join(map(str, codes))))
        elif seed == DEFAULT_SEED:
            status = report["verdict"]["status"]
            if status != "pass":
                problems.append("verdict %r, expected 'pass'" % (status,))
            got = hashlib.sha256(csv_bytes).hexdigest()
            if got != self.csv_digest:
                problems.append("%s_errors.csv sha256 %s, pinned %s"
                                % (self.report, got, self.csv_digest))
            got = report_digest(report)
            if got != self.report_digest:
                problems.append("%s_report.json digest %s, pinned %s"
                                % (self.report, got, self.report_digest))
        if problems:
            return self.reps, problems
        diverged = report["diverged"]
        if self.expect_plain_diverged:
            tamed, plain = diverged
            bad = tamed + (self.reps - plain)
            if bad:
                problems.append("diverged reps tamed %d, plain %d of %d"
                                % (tamed, plain, self.reps))
        else:
            bad = sum(diverged)
            if bad:
                problems.append("diverged counts %r" % (diverged,))
        return min(self.reps, bad), problems

    def outputs(self, out_dir):
        return [os.path.join(out_dir, self.report + suffix)
                for suffix in ("_errors.csv", "_report.json")]


# acceptance criterion 1 config (cubic mean field, d = 1, N = 64,
# levels 16..512 against n_max = 1024, finite taming), 4 reps
_STRONG = """[run]
experiment = {experiment}
seed = {seed}
reps = {reps}

[model]
family = cubic-mean-field
d = 1

[grid]
T = 1.0
levels = 16,32,64,128,256,512
n_max = 1024

[ensemble]
N = 64
initial = gaussian 0.0 0.5

[bands]
slope_lo = 0.40
slope_hi = 0.60
r2_min = 0.95
"""

# acceptance criterion 2 config at d = 3 (pairwise Vlasov, N 16..256
# against N_ref = 1024), cut to 4 reps of 8 steps
_POC = """[run]
experiment = {experiment}
seed = {seed}
reps = {reps}

[model]
family = pairwise-vlasov
d = 3

[grid]
T = 1.0
n = 8

[ensemble]
N_levels = 16,32,64,128,256
N_ref = 1024

[bands]
slope_lo = -0.65
slope_hi = -0.35
r2_min = 0.0
"""

# acceptance criterion 3 config (pure cubic drift: every kernel and noise
# coefficient zero, both arms from the point 3.0) on a long horizon
_MOMENT = """[run]
experiment = {experiment}
seed = {seed}
reps = {reps}
p0 = 4.0

[model]
family = cubic-mean-field
d = 1
lam = 0.0
sigma0 = 0.0
c_f = 0.0
c_g = 0.0

[grid]
T = 2000.0
n = 2

[ensemble]
N = 256
initial = point 3.0
initial_b = point 3.0

[bands]
max_divergence_step = 20
"""

WORKLOADS = {w.name: w for w in (
    Workload("strong-rate", "strong-rate", 2, 4, _STRONG, "strong_rate",
             False, "2ff778a028f7408cf4d08d6f468f1206"
                    "f0d801c4677cec0c51e85f67f45f94ec",
             "c1020d4611103b835dd62cc2bef01d25"
             "f3c18cc075a97012adad6ec0841e6b4a"),
    Workload("poc-rate-d3", "poc-rate", 2, 4, _POC, "poc_rate",
             False, "a24a286940a166df64f78e288a5ebe67"
                    "3cf65b4030472484c2c188cbbe3ebafc",
             "79a332daf25bc9470a9e9b7fb66de3fe"
             "7339dc1fd0c9f4e89fc73fb7dc2d09e7"),
    Workload("moment-long", "moment-stability", 1, 4, _MOMENT,
             "moment_stability", True, "969b235f2deaa1eaa99fca8f6062726a"
                                   "6c5c7934062598046d6eddad056b72f0",
             "c72e19ea51634df2038ba15d6d5c1fc0"
             "1a438f0d2d0a3e8710b2b4be16bad8ec"),
)}

"""Repository hygiene: determinism and structural invariants.

DESIGN.md promises "no wall clock anywhere in simulated paths" and seeded
RNG everywhere; these tests enforce that statically so a stray
``time.time()`` or unseeded ``np.random.<fn>`` cannot silently break
reproducibility.
"""

import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

BANNED_WALLCLOCK = re.compile(r"\btime\.(time|perf_counter|monotonic)\s*\(")
LEGACY_GLOBAL_RNG = re.compile(r"\bnp\.random\.(rand|randn|randint|random|choice|shuffle|seed)\s*\(")
UNSEEDED_RNG = re.compile(r"default_rng\(\s*\)")


def _source_files():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 40, "source tree unexpectedly small"
    return files


def _script_files():
    """Every script under ``benchmarks/`` and ``examples/``: they run, so
    with the entry points they are what reachability is measured from."""
    root = SRC.parents[1]
    return [
        path for folder in ("benchmarks", "examples")
        for path in sorted((root / folder).rglob("*.py"))
    ]


def _pattern_scan_files():
    """Files subject to the regex scans below.

    The ``repro.checks`` lint package is exempt: its rule catalog and
    messages spell out the banned patterns verbatim (as documentation), and
    the package is itself linted by the AST-based ``python -m repro.checks``
    CI gate, which matches real calls rather than prose.
    """
    return [p for p in _source_files() if "checks" not in p.parts]


class TestDeterminismHygiene:
    #: The only parallel/ modules licensed to read the clock at all; each
    #: individual site still needs a per-line ``# repro: noqa[R002]``
    #: (enforced by the AST lint gate) — every other parallel module
    #: (``run.py``, ``splitter_cache.py``,
    #: ``shmsan.py``, ``layout.py``, ...) must stay clock-free and is scanned.
    PARALLEL_TIMING_FILES = {
        "backend.py", "collectives.py", "tracing.py", "worker.py",
    }

    def test_no_wall_clock_in_library(self):
        offenders = []
        for path in _pattern_scan_files():
            if path.name == "cli.py":
                continue  # the CLI times wall-clock regeneration on purpose
            if (
                "parallel" in path.parts
                and path.name in self.PARALLEL_TIMING_FILES
            ):
                continue  # measured wall time is these modules' product
            if BANNED_WALLCLOCK.search(path.read_text()):
                offenders.append(str(path))
        assert not offenders, f"wall-clock calls in simulated paths: {offenders}"

    def test_no_legacy_global_numpy_rng(self):
        offenders = [
            str(p)
            for p in _pattern_scan_files()
            if LEGACY_GLOBAL_RNG.search(p.read_text())
        ]
        assert not offenders, f"legacy np.random.* calls: {offenders}"

    def test_no_unseeded_generators(self):
        offenders = [
            str(p)
            for p in _pattern_scan_files()
            if UNSEEDED_RNG.search(p.read_text())
        ]
        assert not offenders, f"unseeded default_rng(): {offenders}"


class TestStructure:
    def test_every_package_has_docstring(self):
        for init in SRC.rglob("__init__.py"):
            text = init.read_text().lstrip()
            assert text.startswith('"""'), f"{init} lacks a module docstring"

    def test_every_module_has_docstring(self):
        for path in _source_files():
            text = path.read_text().lstrip()
            assert text.startswith('"""'), f"{path} lacks a module docstring"

    def test_benchmarks_cover_every_experiment(self):
        """No orphan either way between the registry, its benchmarks and
        EXPERIMENTS.md: every experiment has a ``bench_*.py`` importing its
        module and a section or paragraph naming its key, and a benchmark
        that imports from ``repro.experiments`` imports registered modules."""
        import ast

        import repro.experiments as exp

        root = SRC.parents[1]
        registered = {m.__name__.rsplit(".", 1)[-1] for m in exp.EXPERIMENTS.values()}
        benched = set()
        for path in sorted((root / "benchmarks").glob("bench_*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module == "repro.experiments":
                    benched.update(alias.name for alias in node.names)
        assert benched == registered, (
            f"experiments without a benchmark: {sorted(registered - benched)}; "
            f"benchmarks of unregistered modules: {sorted(benched - registered)}"
        )
        results = (root / "EXPERIMENTS.md").read_text()
        unnamed = [name for name in exp.EXPERIMENTS if f"`{name}`" not in results]
        assert not unnamed, f"EXPERIMENTS.md names no result for: {unnamed}"

    #: Ratchet for ROADMAP item 3: the six steps and the pool stay cut at
    #: their seams.  No allowlist — split the function, don't list it.
    MAX_FUNCTION_LINES = 200
    MAX_PARALLEL_MODULE_LINES = 800

    def test_core_and_parallel_stay_decomposed(self):
        import ast

        too_long = []
        for package in ("core", "parallel"):
            for path in sorted((SRC / package).rglob("*.py")):
                text = path.read_text()
                lines = len(text.splitlines())
                if package == "parallel" and lines > self.MAX_PARALLEL_MODULE_LINES:
                    too_long.append(f"{path.name}: {lines} lines")
                for node in ast.walk(ast.parse(text)):
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        length = node.end_lineno - node.lineno + 1
                        if length > self.MAX_FUNCTION_LINES:
                            too_long.append(f"{path.name}:{node.name}: {length} lines")
        assert not too_long, f"decompose instead of growing: {too_long}"

    #: The word path decodes every key once, in step 6.  These names put a
    #: decoded copy of a block in memory, so outside the module that
    #: defines them they belong to the step-6 ``merge`` closures of
    #: ``core/datapath.py`` alone.
    DECODING_KERNELS = {"unpack_words", "decode_keys", "unpack_provenance"}
    DATA_PATH = "core/datapath.py"

    def test_only_step_six_decodes_the_block(self):
        import ast

        offenders = []
        for path in _source_files():
            relative = path.relative_to(SRC).as_posix()
            if relative == "core/packsort.py":
                continue  # the kernels' home; its one-block sort decodes what it sorted
            tree = ast.parse(path.read_text())
            licensed = set()
            if relative == self.DATA_PATH:
                for node in ast.walk(tree):
                    if isinstance(node, ast.FunctionDef) and node.name == "merge":
                        licensed.update(map(id, ast.walk(node)))
            for node in ast.walk(tree):
                if id(node) in licensed:
                    continue
                if isinstance(node, ast.ImportFrom):  # the data path may import them
                    names = {alias.name for alias in node.names if relative != self.DATA_PATH}
                else:
                    names = {getattr(node, "id", None), getattr(node, "attr", None)}
                for name in names & self.DECODING_KERNELS:
                    offenders.append(f"{relative}:{node.lineno}: {name}")
        assert not offenders, f"a decoded copy of the block is coming back: {offenders}"

    #: The step 2–4 kernels read ``sorted_keys`` through its own methods
    #: only, which is what lets packed words stand in for it.
    BLOCK_READERS = ("core/sampling.py", "core/investigator.py")

    def test_steps_two_to_four_only_call_methods_on_the_sorted_block(self):
        import ast

        offenders = []
        for relative in self.BLOCK_READERS:
            for func in ast.walk(ast.parse((SRC / relative).read_text())):
                if not isinstance(func, ast.FunctionDef):
                    continue
                if "sorted_keys" not in {arg.arg for arg in func.args.args}:
                    continue
                for node in ast.walk(func):
                    as_array = (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and getattr(node.func.value, "id", None) == "np"
                        and any(getattr(arg, "id", None) == "sorted_keys" for arg in node.args)
                    )
                    indexed = (
                        isinstance(node, ast.Subscript)
                        and getattr(node.value, "id", None) == "sorted_keys"
                    )
                    if as_array or indexed:
                        offenders.append(f"{relative}:{node.lineno}: {func.name}")
        assert not offenders, f"np.* or indexing on sorted_keys: {offenders}"

    #: ``"<path under src/repro> <Class>.<attribute>"`` -> why that instance
    #: may keep a bound method of itself (and so a reference cycle) alive.
    SELF_CYCLE_ALLOWLIST: dict[str, str] = {}
    #: Decorators under which ``self.<name>`` is not a bound method of self.
    NOT_BOUND = {"property", "cached_property", "staticmethod", "classmethod", "setter"}

    def test_no_instance_attribute_holds_a_bound_method_of_self(self):
        """``self.x = self.method`` (or the method inside a dict, list, tuple
        or set literal) is a reference cycle: the instance and everything it
        holds die only in a cyclic collection, never by refcount — and
        ``Simulator.run`` pauses the GC."""
        import ast

        def decorator_name(node):
            return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

        def holds_method(value, me, methods):
            if isinstance(value, ast.Attribute):
                return getattr(value.value, "id", None) == me and value.attr in methods
            if isinstance(value, ast.Dict):
                return any(holds_method(v, me, methods) for v in value.keys + value.values if v)
            if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
                return any(holds_method(v, me, methods) for v in value.elts)
            return False

        found = set()
        for path in _source_files():
            relative = path.relative_to(SRC).as_posix()
            for cls in ast.walk(ast.parse(path.read_text())):
                if not isinstance(cls, ast.ClassDef):
                    continue
                defs = [
                    node for node in cls.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
                methods = {
                    node.name for node in defs
                    if not {decorator_name(d) for d in node.decorator_list} & self.NOT_BOUND
                }
                for func in defs:
                    if not func.args.args:
                        continue
                    me = func.args.args[0].arg
                    for node in ast.walk(func):
                        if isinstance(node, ast.Assign):
                            targets, value = node.targets, node.value
                        elif isinstance(node, ast.AnnAssign) and node.value is not None:
                            targets, value = [node.target], node.value
                        else:
                            continue
                        for target in targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and getattr(target.value, "id", None) == me
                                and holds_method(value, me, methods)
                            ):
                                found.add(f"{relative} {cls.name}.{target.attr}")
        assert found == set(self.SELF_CYCLE_ALLOWLIST), (
            f"instance attributes holding a bound method of self (a reference "
            f"cycle; store the plain function, or build the table per call): "
            f"{sorted(found - set(self.SELF_CYCLE_ALLOWLIST))}; allowlisted but "
            f"gone: {sorted(set(self.SELF_CYCLE_ALLOWLIST) - found)}"
        )

    #: Docs and workflows whose repo paths must resolve.
    PATH_CITING_FILES = (
        "README.md",
        "DESIGN.md",
        ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md",
    )
    CODE_SPAN = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)
    TREE_PATH = re.compile(
        r"(?<![\w/.-])(?:src|tests|benchmarks|examples)/[\w./-]*[\w/]"
    )
    #: Root-level records and docs are upper-case named; lower-case
    #: ``*.json`` in the docs are output names a command writes.
    ROOT_FILE = re.compile(r"`([A-Z][\w.-]*\.(?:json|md))`")

    def test_paths_cited_in_docs_and_ci_exist(self):
        root = SRC.parents[1]
        missing = []
        for name in self.PATH_CITING_FILES:
            text = (root / name).read_text()
            # Markdown cites paths in code spans (prose says "src/dst");
            # the workflow cites them bare in its commands.
            spans = self.CODE_SPAN.findall(text) if name.endswith(".md") else [text]
            cited = set(self.ROOT_FILE.findall(text))
            for span in spans:
                cited.update(self.TREE_PATH.findall(span))
            for path in sorted(cited):
                if path.startswith("benchmarks/ledger/"):
                    continue  # frozen by BENCHMARK.json; names its own outputs
                if not (root / path).exists():
                    missing.append(f"{name}: {path}")
        assert not missing, f"docs cite paths that do not exist: {missing}"


class TestReachability:
    """ROADMAP item 6: a source module stays only while something that runs
    imports it.  Roots are the public API, the experiments CLI and every
    registered experiment, the ``python -m`` entry points CI calls, and every
    script under ``benchmarks/`` and ``examples/`` — not tests.  ``from
    package import name`` reaches the module that defines ``name``, followed
    through the package ``__init__``; a re-export alone reaches nothing, and
    neither does a bare ``import package``.
    """

    ROOTS = (
        "repro.core.api",  # repro/__init__'s lazy API
        "repro.core.result",
        "repro.experiments.cli",
        "repro.checks.__main__",
        "repro.simnet.sanitizer",
        "repro.obs.report",
        "repro.parallel.shmsan",
        "repro.analysis.determinism",
    )
    #: Unreachable on purpose, each with its reason.  Delete the module
    #: rather than growing this.
    ALLOWED = {
        "repro.analysis.calibration": (
            "the cost-model shape gate: tests/analysis runs it and "
            "EXPERIMENTS.md cites it"
        ),
    }

    def test_every_module_is_reached_by_something_that_runs(self):
        import ast

        import repro.experiments as exp

        paths = {}
        for path in _source_files():
            parts = ("repro", *path.relative_to(SRC).with_suffix("").parts)
            paths[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
        trees = {name: ast.parse(path.read_text()) for name, path in paths.items()}

        def is_package(name):
            return paths[name].name == "__init__.py"

        def imports(tree, module=""):
            """``(module, name)`` for every name ``tree`` imports from the package."""
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    yield from ((alias.name, None) for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    if node.level:
                        here = module.split(".")
                        here = here[: len(here) - node.level + is_package(module)]
                        base = ".".join([*here, *filter(None, [node.module])])
                    yield from ((base, alias.name) for alias in node.names)

        def defining_module(base, name):
            if base not in paths:
                return None
            if f"{base}.{name}" in paths:
                return f"{base}.{name}"
            if not is_package(base):
                return base
            if name is None:
                return None  # bare ``import package``
            for origin, exported in imports(trees[base], base):
                if exported == name:
                    return defining_module(origin, name)
            return base  # defined in the __init__ itself

        todo = [*self.ROOTS, *(m.__name__ for m in exp.EXPERIMENTS.values())]
        for path in _script_files():
            todo.extend(
                defining_module(*imported)
                for imported in imports(ast.parse(path.read_text()))
            )
        reached = set()
        while todo:
            module = todo.pop()
            if module is None or module in reached:
                continue
            reached.add(module)
            todo.extend(
                defining_module(*imported)
                for imported in imports(trees[module], module)
            )
        unreached = {
            name for name in paths if name not in reached and not is_package(name)
        }
        assert unreached == set(self.ALLOWED), (
            f"nothing that runs imports {sorted(unreached - set(self.ALLOWED))}; "
            f"allowlisted but reached or gone: {sorted(set(self.ALLOWED) - unreached)}"
        )

    #: Options nothing that runs sets, on purpose, each with its reason.  Turn
    #: the option into a constant rather than growing this.
    UNSET_OPTIONS = {
        "phase_timeout_seconds": (
            "a deployment setting: the per-collective deadline depends on the "
            "machine the pool runs on, like timeout_seconds"
        ),
    }

    def test_every_option_is_set_by_something_that_runs(self):
        """The same rule one level down: an option of the sort stays only
        while something that runs — the source tree outside its defining
        module, a benchmark or an example; not a test — passes it as a
        keyword argument (``DistributedSorter``/``with_overrides`` override
        names are keywords too).  Otherwise it is a constant."""
        import ast
        import dataclasses
        import inspect

        from repro.core.sorter import SortOptions
        from repro.parallel.backend import ProcessBackend
        from repro.pgxd.config import PgxdConfig

        surfaces = {
            SRC / "core" / "sorter.py": [f.name for f in dataclasses.fields(SortOptions)],
            SRC / "pgxd" / "config.py": [f.name for f in dataclasses.fields(PgxdConfig)],
            SRC / "parallel" / "backend.py": [
                name for name in inspect.signature(ProcessBackend.__init__).parameters
                if name != "self"
            ],
        }
        passed_in = {}
        for path in [*_source_files(), *_script_files()]:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.keyword) and node.arg:
                    passed_in.setdefault(node.arg, set()).add(path)
        unset = {
            name for home, names in surfaces.items() for name in names
            if not passed_in.get(name, set()) - {home}
        }
        assert unset == set(self.UNSET_OPTIONS), (
            f"nothing that runs sets {sorted(unset - set(self.UNSET_OPTIONS))}; "
            f"allowlisted but set or gone: {sorted(set(self.UNSET_OPTIONS) - unset)}"
        )

    #: Steps 2–3 are written once: ``draw_samples``/``agree_splitters`` in
    #: ``core/steps.py`` are the only callers of the four primitives.
    STEP_2_3_PRIMITIVES = {
        "sample_count", "select_regular_samples", "merge_samples", "select_splitters",
    }

    def test_only_the_step_kernels_call_the_sampling_primitives(self):
        import ast

        offenders = []
        for path in _source_files():
            if path == SRC / "core" / "steps.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in self.STEP_2_3_PRIMITIVES:
                        offenders.append(f"{path.relative_to(SRC)}:{node.lineno}: {name}")
        assert not offenders, f"steps 2-3 spelled outside core/steps.py: {offenders}"

    #: Steps 1 and 6 are written once, in ``core/datapath.py``: the only
    #: caller of their data kernels outside the modules defining them.
    STEP_1_6_KERNELS = {
        "core/packsort.py": {"pack_words", "sort_runs_in_place", "unpack_words"},
        "core/steps.py": {"sort_block", "merge_received"},
    }

    def test_only_the_data_path_calls_the_step_one_and_six_kernels(self):
        import ast

        kernels = set().union(*self.STEP_1_6_KERNELS.values())
        offenders = []
        for path in _source_files():
            relative = path.relative_to(SRC).as_posix()
            if relative == TestStructure.DATA_PATH:
                continue
            foreign = kernels - self.STEP_1_6_KERNELS.get(relative, set())
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in foreign:
                        offenders.append(f"{relative}:{node.lineno}: {name}")
        assert not offenders, f"steps 1 and 6 spelled outside core/datapath.py: {offenders}"

    #: The six steps are written once, in ``core/program.py``: outside the
    #: modules defining them, only it names the step kernels and the key
    #: frame's derivation; the substrates serve its steps.
    PROGRAM = "core/program.py"
    PROGRAM_KERNELS = {
        "core/packsort.py": {"derive_key_frame"},
        "core/datapath.py": {"local_sort"},
        "core/steps.py": {"draw_samples", "agree_splitters", "partition_block"},
    }
    #: The oracle runs steps 2–3 itself, with the kernels it checks against.
    PROGRAM_KERNEL_USERS = {"core/local_backend.py": {"draw_samples", "agree_splitters"}}

    def test_only_the_program_names_the_step_kernels(self):
        import ast

        kernels = set().union(*self.PROGRAM_KERNELS.values())
        offenders = []
        for path in _source_files():
            relative = path.relative_to(SRC).as_posix()
            if relative == self.PROGRAM:
                continue
            foreign = (
                kernels
                - self.PROGRAM_KERNELS.get(relative, set())
                - self.PROGRAM_KERNEL_USERS.get(relative, set())
            )
            for node in ast.walk(ast.parse(path.read_text())):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in foreign:
                    offenders.append(f"{relative}:{node.lineno}: {name}")
        assert not offenders, f"a step written outside core/program.py: {offenders}"


    #: Every simulated sort is one job through ``run_with_retry``: the
    #: only place a job and its program are built is ``core/api.py``'s
    #: ``_simulate``, the attempt every simulated job runs.
    JOB_BUILDERS = {"SortJob", "sample_sort_program"}

    def test_only_the_simulated_attempt_builds_a_job(self):
        import ast

        offenders = []
        for path in _source_files():
            relative = path.relative_to(SRC).as_posix()
            tree = ast.parse(path.read_text())
            allowed = set()
            if relative == "core/api.py":
                (simulate,) = [
                    node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_simulate"
                ]
                allowed = set(map(id, ast.walk(simulate)))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and id(node) not in allowed:
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in self.JOB_BUILDERS:
                        offenders.append(f"{relative}:{node.lineno}: {name}")
        assert not offenders, f"a simulated job built outside api._simulate: {offenders}"

    def test_every_worker_link_in_the_library_has_a_region(self):
        """A ``WorkerLink`` without a control region relays its collectives
        over the pipes, which only the perf ledger's collective battery may
        do: in ``src/`` every link is built with a region, the fourth
        argument (or ``region=``), and never a literal ``None``."""
        import ast

        offenders, built = [], 0
        for path in _source_files():
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                if getattr(node.func, "id", getattr(node.func, "attr", None)) != "WorkerLink":
                    continue
                built += 1
                region = node.args[3] if len(node.args) > 3 else next(
                    (kw.value for kw in node.keywords if kw.arg == "region"), None
                )
                if region is None or (isinstance(region, ast.Constant) and region.value is None):
                    offenders.append(f"{path.relative_to(SRC).as_posix()}:{node.lineno}")
        assert built, "no WorkerLink built in src/: the scan went blind"
        assert not offenders, f"a region-less WorkerLink in src/: {offenders}"


class TestPackageSurface:
    def test_lazy_top_level_exports(self):
        import repro

        assert callable(repro.distributed_sort)
        assert repro.DistributedSorter is not None
        assert repro.SortConfig is not None
        assert repro.SortResult is not None
        assert isinstance(repro.__version__, str)

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.nonexistent_symbol

    def test_subpackage_all_exports_resolve(self):
        import importlib

        for name in ("repro.simnet", "repro.pgxd", "repro.core",
                     "repro.baselines", "repro.workloads", "repro.analysis",
                     "repro.experiments"):
            module = importlib.import_module(name)
            for symbol in getattr(module, "__all__", []):
                assert hasattr(module, symbol), f"{name}.{symbol} missing"

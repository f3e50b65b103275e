"""Command-line interface: exit codes, output shapes, and manifests."""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

from hearthproof import cli, compiler, solver
from hearthproof.cards import database_to_json
from hearthproof.cli import main
from hearthproof.solver import skeleton_solve
from hearthproof.state import EventLog, GameConfig
from micro_positions import micro_positions

WORKED = {"pairs": [[1, 2], [4, 3], [5, 6], [8, 8]], "target": 18}


def shift_turns(config: dict, turns: int) -> dict:
    """A config file's object starting ``turns`` game turns later, with its
    turn limit moved along."""
    return {**config, "turn": config["turn"] + turns,
            "turnLimit": config["turnLimit"] + turns}


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(WORKED))
    return str(path)


@pytest.fixture()
def compiled_dir(tmp_path, instance_file, capsys):
    out = tmp_path / "out"
    assert main(["compile", instance_file, "--out-dir", str(out)]) == 0
    capsys.readouterr()  # swallow the manifest line
    return out


def read_manifest_line(stderr: str) -> dict:
    lines = [line for line in stderr.strip().splitlines() if line]
    manifest = json.loads(lines[-1])
    assert manifest["formatVersion"] == 1
    return manifest


class TestCompile:
    def test_writes_artifacts(self, tmp_path, instance_file, capsys) -> None:
        out = tmp_path / "out"
        code = main(["compile", instance_file, "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        config_text = (out / "config.json").read_text()
        line_obj = json.loads((out / "line.json").read_text())
        GameConfig.from_json(config_text)  # parses and validates
        assert line_obj["formatVersion"] == 1
        assert line_obj["instance"] == WORKED

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "compile"
        expected_hash = hashlib.sha256(config_text.encode()).hexdigest()
        assert manifest["configHash"] == expected_hash
        assert read_manifest_line(captured.err)["configHash"] == expected_hash

    def test_outputs_are_reproducible(self, tmp_path, instance_file, capsys) -> None:
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["compile", instance_file, "--out-dir", str(first)]) == 0
        assert main(["compile", instance_file, "--out-dir", str(second)]) == 0
        capsys.readouterr()
        assert (first / "config.json").read_bytes() == (second / "config.json").read_bytes()
        assert (first / "line.json").read_bytes() == (second / "line.json").read_bytes()

    def test_worked_outputs_are_pinned(self, compiled_dir, capsys) -> None:
        """The worked artifacts and the traced replay of its winning choices
        are byte-stable; the replay runs the line in place on one state."""
        def sha256(data: bytes) -> str:
            return hashlib.sha256(data).hexdigest()

        assert sha256((compiled_dir / "config.json").read_bytes()) == (
            "8a53376ffe36f4c9914311f1170565aebd9812a0be47f502cda36e22a9ff7962")
        assert sha256((compiled_dir / "line.json").read_bytes()) == (
            "d799cf617e888a01c0bb92a37e291b73f620c45da4f5866ba1d1d0de995f5eb8")
        assert main(["replay", str(compiled_dir / "config.json"),
                     str(compiled_dir / "line.json"), "--choices", "xyyx",
                     "--trace"]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert len(out) == 506_576
        assert sha256(out) == (
            "fdcefc330c12f6005ddaadb8928879ec56d7b7609c080176f31008649846e1f6")

    def test_skip_trace_is_pinned(self, tmp_path, capsys) -> None:
        """The one-pair line whose weapon swing the surviving wall blocks:
        its trace carries a ``skip`` event, the only payload with a nested
        action object."""
        def sha256(data: bytes) -> str:
            return hashlib.sha256(data).hexdigest()

        path = tmp_path / "one.json"
        path.write_text(json.dumps({"pairs": [[1, 2]], "target": 2}))
        out = tmp_path / "one"
        assert main(["compile", str(path), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert sha256((out / "config.json").read_bytes()) == (
            "1644625ff92167e6ea2cc87b1df80b2627d737fae59032964215ebb6b249bad3")
        assert sha256((out / "line.json").read_bytes()) == (
            "a1fa26a2f2b988cbf2652a83eed7bfa01bab5509bf527d22ad1c7a660a020c6d")
        assert main(["replay", str(out / "config.json"), str(out / "line.json"),
                     "--choices", "x", "--trace"]) == 0
        text = capsys.readouterr().out
        assert sum(json.loads(l).get("kind") == "skip" for l in text.splitlines()) == 1
        assert len(text.encode("utf-8")) == 91_827
        assert sha256(text.encode("utf-8")) == (
            "f8432fbb0605e0a6c4286c0651f2992b772d803aea916bcfbea67ca84eaef7e7")

    def test_too_small_turn_limit_is_infeasible(self, instance_file, tmp_path,
                                                capsys) -> None:
        code = main(["compile", instance_file, "--out-dir",
                     str(tmp_path / "x"), "--turn-limit", "3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == (
            "error: schedule infeasible: line spans 6 turns but the turn limit is 3\n")
        assert "\x1b" not in captured.err  # no ANSI colour when not a tty

    @pytest.mark.parametrize("command", ["compile", "verify"])
    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_turn_limit_below_one_is_an_input_error(self, instance_file, tmp_path,
                                                    command, limit, capsys) -> None:
        """A game whose turn limit is below 1 is no game: bad input, exit 2,
        not an infeasible schedule."""
        argv = [command, instance_file, "--turn-limit", limit]
        if command == "compile":
            argv += ["--out-dir", str(tmp_path / "x")]
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert "must be at least 1" in captured.err
        assert not (tmp_path / "x").exists()

    def test_missing_input_file(self, tmp_path, capsys) -> None:
        code = main(["compile", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path / "x")])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_malformed_instance(self, tmp_path, capsys) -> None:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pairs": [], "target": 3}))
        code = main(["compile", str(bad), "--out-dir", str(tmp_path / "x")])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("command", ["compile", "verify"])
    def test_non_integer_instance_values_are_input_errors(
            self, command, tmp_path, capsys) -> None:
        """A float or a numeric string is not rounded into an instance."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pairs": [[1.5, 1]], "target": "1"}))
        argv = [command, str(bad)]
        if command == "compile":
            argv += ["--out-dir", str(tmp_path / "x")]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "not an integer" in captured.err

    def test_validate_all_beyond_twelve_pairs_is_an_input_error(
            self, tmp_path, monkeypatch, capsys) -> None:
        """The n <= 12 limit of ``--validate all`` is checked before any
        compiling, and reported as an input error."""
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"pairs": [[1, 2]] * 13, "target": 10}))

        def no_compiling(*args):
            raise AssertionError("compiled before checking the limit")

        monkeypatch.setattr(compiler, "shifted_instance", no_compiling)
        code = main(["compile", str(path), "--out-dir", str(tmp_path / "x"),
                     "--validate", "all"])
        captured = capsys.readouterr()
        assert code == 2
        assert "n <= 12" in captured.err
        assert not (tmp_path / "x").exists()


class TestVerify:
    def test_worked_instance_matches(self, instance_file, capsys) -> None:
        code = main(["verify", instance_file])
        captured = capsys.readouterr()
        assert code == 0
        out = json.loads(captured.out)
        assert out["formatVersion"] == 1
        assert out["instance"] == WORKED
        assert out["oracle"] is True
        assert out["skeleton"] == "win"
        assert out["match"] is True
        assert out["deviations"]["unresolved"] == 0
        assert out["deviations"]["improved"] == 0
        assert out["deviations"]["refuted"] > 0
        manifest = read_manifest_line(captured.err)
        assert manifest["command"] == "verify"

    def test_manifest_counts_the_deviation_probe(self, instance_file,
                                                 capsys) -> None:
        """The manifest's counters say how much the probe searched; stdout
        keeps the bytes it had before the counters existed."""
        assert main(["verify", instance_file]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            '{"formatVersion": 1, "instance": {"pairs": [[1, 2], [4, 3], '
            '[5, 6], [8, 8]], "target": 18}, "oracle": true, "skeleton": '
            '"win", "match": true, "deviations": {"refuted": 7, "dominated": '
            '0, "improved": 0, "unresolved": 0}}\n')
        assert read_manifest_line(captured.err)["counters"] == {
            "deviationNodes": 3017, "checkedSteps": 3}

        assert main(["verify", instance_file, "--mode", "full",
                     "--max-nodes", "200"]) == 1
        manifest = read_manifest_line(capsys.readouterr().err)
        assert manifest["counters"] == {"deviationNodes": 0, "checkedSteps": 0}

    def test_solves_the_skeleton_once(self, instance_file, monkeypatch,
                                      capsys) -> None:
        """The deviation check reuses the verdict's skeleton solution."""
        calls = []

        def counted(config, line):
            calls.append(line)
            return skeleton_solve(config, line)

        monkeypatch.setattr(cli, "skeleton_solve", counted)
        monkeypatch.setattr(solver, "skeleton_solve", counted)
        assert main(["verify", instance_file]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_tampered_config_fails(self, instance_file, compiled_dir, tmp_path,
                                   capsys) -> None:
        """Raising the accumulator's health off every reachable window must
        flip the verdict and be caught as a mismatch."""
        obj = json.loads((compiled_dir / "config.json").read_text())
        obj["players"][1]["board"][0]["health"] = 207
        obj["players"][1]["board"][0]["maxHealth"] = 207
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(obj))

        code = main(["verify", instance_file, "--config-override", str(tampered)])
        captured = capsys.readouterr()
        assert code == 1
        out = json.loads(captured.out)
        assert out["oracle"] is True
        assert out["skeleton"] == "loss"
        assert out["match"] is False

    def test_full_mode_with_tiny_budget_is_unknown(self, instance_file,
                                                   capsys) -> None:
        code = main(["verify", instance_file, "--mode", "full",
                     "--max-nodes", "200"])
        captured = capsys.readouterr()
        assert code == 1
        out = json.loads(captured.out)
        assert out["skeleton"] == "unknown"
        assert out["match"] is False
        assert out["deviations"] == {
            "refuted": 0, "dominated": 0, "improved": 0, "unresolved": 0}

    def test_full_mode_with_unreplayable_override_is_a_mismatch(
            self, tmp_path, capsys) -> None:
        """A micro configuration the compiled line cannot be replayed on:
        full mode solves it, then reports the failed deviation replay as a
        mismatch with its manifest, as skeleton mode does."""
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps({"pairs": [[1, 2]], "target": 1}))
        label, config, _ = micro_positions()[0]
        assert label == "weapon_race_win"
        override = tmp_path / "micro.json"
        override.write_text(config.to_json())
        for mode in ("skeleton", "full"):
            code = main(["verify", str(instance), "--mode", mode,
                         "--config-override", str(override)])
            captured = capsys.readouterr()
            assert code == 1
            out = json.loads(captured.out)
            assert out["skeleton"] == "unknown"
            assert out["match"] is False
            assert captured.err.splitlines()[0] == (
                "error: scripted step 0 is illegal here: no card in hand slot 0")
            assert read_manifest_line(captured.err)["command"] == "verify"

    def test_unreplayable_override_says_which_step(self, instance_file, tmp_path,
                                                   capsys) -> None:
        """The worked line on another instance's configuration: ``verify``
        names the step it cannot replay before its manifest, as ``replay``
        does, and reports the mismatch as before."""
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"pairs": [[1, 2], [2, 1]], "target": 2}))
        other_dir = tmp_path / "other-out"
        assert main(["compile", str(other), "--out-dir", str(other_dir)]) == 0
        capsys.readouterr()
        code = main(["verify", instance_file,
                     "--config-override", str(other_dir / "config.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out) == {
            "formatVersion": 1, "instance": WORKED, "oracle": True,
            "skeleton": "unknown", "match": False,
            "deviations": {"refuted": 0, "dominated": 0, "improved": 0,
                           "unresolved": 0}}
        error, manifest = captured.err.splitlines()
        assert error == (
            "error: scripted step 51 is illegal here: Mortal Coil needs a target")
        assert json.loads(manifest)["command"] == "verify"

    def test_shifted_turns_give_the_same_output(self, instance_file, compiled_dir,
                                                tmp_path, capsys) -> None:
        """The compiled game started two turns later verifies alike, down
        to the nodes its deviation probes search."""
        shifted = tmp_path / "shifted.json"
        shifted.write_text(json.dumps(shift_turns(
            json.loads((compiled_dir / "config.json").read_text()), 2)))
        outputs = []
        for override in (compiled_dir / "config.json", shifted):
            code = main(["verify", instance_file, "--config-override", str(override)])
            captured = capsys.readouterr()
            outputs.append((code, captured.out,
                            read_manifest_line(captured.err)["counters"]))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0


    @pytest.mark.parametrize("flags", [
        ["--deviation-turns", "0"],
        ["--deviation-turns", "-1"],
        ["--mode", "full", "--max-nodes", "-1"],
        ["--max-depth", "0"],
    ])
    def test_budgets_below_one_are_input_errors(self, tmp_path, flags,
                                                capsys) -> None:
        """A budget or turn count below 1 would probe nothing and report
        an empty pass; it is rejected before any work, exit 2."""
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps({"pairs": [[1, 2]], "target": 2}))
        with pytest.raises(SystemExit) as info:
            main(["verify", str(instance)] + flags)
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert "must be at least 1" in captured.err


class TestReplay:
    def test_streams_events_and_final(self, compiled_dir, capsys) -> None:
        code = main(["replay", str(compiled_dir / "config.json"),
                     str(compiled_dir / "line.json"), "--choices", "xyyx"])
        captured = capsys.readouterr()
        assert code == 0
        lines = [json.loads(l) for l in captured.out.strip().splitlines()]
        assert lines[0] == {"formatVersion": 1, "kind": "replay",
                            "choices": "xyyx"}
        assert lines[-1]["kind"] == "final"
        assert lines[-1]["outcome"] == "friendly_wins"
        kinds = {l.get("kind") for l in lines[1:-1]}
        assert "decision" in kinds
        assert "damage" in kinds
        decisions = [l for l in lines if l.get("kind") == "decision"]
        assert [d["chosen"] for d in decisions] == ["x", "y", "y", "x"]

    def test_trace_snapshots(self, compiled_dir, capsys) -> None:
        code = main(["replay", str(compiled_dir / "config.json"),
                     str(compiled_dir / "line.json"), "--choices", "xyyx",
                     "--trace"])
        captured = capsys.readouterr()
        assert code == 0
        snaps = [json.loads(l) for l in captured.out.strip().splitlines()
                 if '"snapshot"' in l]
        assert snaps
        indexes = [s["stepIndex"] for s in snaps]
        assert indexes == sorted(indexes)
        assert "players" in snaps[0] and "turn" in snaps[0]

    def test_seeded_traces_are_pinned(self, tmp_path, capsys) -> None:
        """Byte pin over the traced replays of nine seeded instances
        (n 4-12, values 1-9), alternately under a winning choice string and
        a losing one: their snapshots cover boards, hands and outcomes the
        worked trace never reaches."""
        rng = random.Random(20261018)
        digest = hashlib.sha256()
        for n in range(4, 13):
            pairs = [[rng.randint(1, 9), rng.randint(1, 9)] for _ in range(n)]
            winning = "".join(rng.choice("xy") for _ in range(n))
            choices = winning
            if n % 2:  # flip one choice of a pair whose values differ
                k = next(i for i, (x, y) in enumerate(pairs) if x != y)
                choices = winning[:k] + "xy"[winning[k] == "x"] + winning[k + 1:]
            target = sum(p[c == "y"] for p, c in zip(pairs, winning))
            path = tmp_path / f"seeded-{n}.json"
            path.write_text(json.dumps({"pairs": pairs, "target": target}))
            out = tmp_path / f"seeded-{n}"
            assert main(["compile", str(path), "--out-dir", str(out)]) == 0
            capsys.readouterr()
            assert main(["replay", str(out / "config.json"),
                         str(out / "line.json"), "--choices", choices,
                         "--trace"]) == 0
            text = capsys.readouterr().out
            final = json.loads(text.splitlines()[-1])
            want = "enemy_wins" if n % 2 else "friendly_wins"
            assert final["outcome"] == want
            digest.update(text.encode("utf-8"))
        assert digest.hexdigest() == (
            "65060d8010707ee2206ac3a5566941fae5a0998670b5db57454dd487b04c23a4")

    def test_event_lines_are_exact(self, tmp_path, capsys) -> None:
        """``replay`` encodes each distinct event payload once; every event
        line must still be ``json.dumps`` of the event, also where a payload
        recurs at a later step.  All choice strings of three small
        instances, one with a ``skip`` event."""
        repeats = skips = 0
        for k, (pairs, target) in enumerate([
                ([[1, 2]], 2), ([[0, 3], [2, 2]], 2), ([[5, 1], [7, 2], [3, 3]], 9)]):
            path = tmp_path / f"small-{k}.json"
            path.write_text(json.dumps({"pairs": pairs, "target": target}))
            out = tmp_path / f"small-{k}"
            assert main(["compile", str(path), "--out-dir", str(out)]) == 0
            config = GameConfig.from_json((out / "config.json").read_text())
            line = compiler.ScriptedLine.from_json((out / "line.json").read_text())
            for vector in itertools.product("xy", repeat=len(pairs)):
                capsys.readouterr()
                assert main(["replay", str(out / "config.json"), str(out / "line.json"),
                             "--choices", "".join(vector)]) == 0
                lines = capsys.readouterr().out.splitlines()
                log = EventLog()
                compiler.run_line(config, line, vector, log)
                assert lines[1:-1] == [json.dumps(e.to_json_obj()) for e in log]
                payloads = {json.dumps([e.kind, e.data]) for e in log}
                repeats += len(log) - len(payloads)
                skips += sum(e.kind == "skip" for e in log)
        assert repeats > 0
        assert skips > 0

    def test_losing_choices_still_stream(self, compiled_dir, capsys) -> None:
        # xxyx sums to 19, missing the target of 18.
        code = main(["replay", str(compiled_dir / "config.json"),
                     str(compiled_dir / "line.json"), "--choices", "xxyx"])
        captured = capsys.readouterr()
        assert code == 0
        last = json.loads(captured.out.strip().splitlines()[-1])
        assert last["outcome"] == "enemy_wins"

    def test_bad_choice_string(self, compiled_dir, capsys) -> None:
        """``--choices`` must hold one x or y per pair: a wrong length or a
        wrong letter exits 2 before the header line is printed."""
        for choices in ("xyz", "xyy", "xyzx"):
            code = main(["replay", str(compiled_dir / "config.json"),
                         str(compiled_dir / "line.json"), "--choices", choices])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "choices" in captured.err

    def test_skip_logs_the_game_turn(self, tmp_path, capsys) -> None:
        """On a game started two turns later, the one-pair line's blocked
        weapon swing is logged in the turn the game is on."""
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"pairs": [[1, 2]], "target": 2}))
        out = tmp_path / "one"
        assert main(["compile", str(path), "--out-dir", str(out)]) == 0
        shifted = tmp_path / "shifted.json"
        shifted.write_text(json.dumps(shift_turns(
            json.loads((out / "config.json").read_text()), 2)))
        capsys.readouterr()
        assert main(["replay", str(shifted), str(out / "line.json"),
                     "--choices", "x"]) == 0
        events = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        turn, skips = None, []
        for event in events:
            if event.get("kind") == "start_turn":
                turn = event["turn"]
            elif event.get("kind") == "skip":
                skips.append((event["turn"], turn))
        assert skips == [(3, 3)]

    def test_mismatched_config_and_line(self, compiled_dir, tmp_path,
                                        capsys) -> None:
        """A line replayed against a foreign configuration hits a
        non-optional illegal step and fails."""
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"pairs": [[1, 2]], "target": 1}))
        other_dir = tmp_path / "other-out"
        assert main(["compile", str(other), "--out-dir", str(other_dir)]) == 0
        code = main(["replay", str(other_dir / "config.json"),
                     str(compiled_dir / "line.json"), "--choices", "xyyx"])
        captured = capsys.readouterr()
        assert code == 1
        assert "illegal" in captured.err

    def test_illegal_step_still_writes_the_manifest(self, compiled_dir, tmp_path,
                                                    capsys) -> None:
        """A replay that fails on an illegal step exits 1 and still ends
        stderr with its run manifest."""
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"pairs": [[1, 2], [2, 1]], "target": 2}))
        other_dir = tmp_path / "other-out"
        assert main(["compile", str(other), "--out-dir", str(other_dir)]) == 0
        for trace, lines, digest in [
                ([], 206, "8d4268baa2b2fcd3fa0221dc8f538b658d007be85b90802557f75948bb75dc29"),
                (["--trace"], 257,
                 "ba3f29ee36b8156492bdd649839eb91d39655f0c3cfb180854cae0bddbc56d7d")]:
            capsys.readouterr()
            code = main(["replay", str(other_dir / "config.json"),
                         str(compiled_dir / "line.json"), "--choices", "xxxx", *trace])
            captured = capsys.readouterr()
            assert code == 1
            assert ("scripted step 51 is illegal here: Mortal Coil needs a target"
                    in captured.err)
            manifest = read_manifest_line(captured.err)
            assert manifest["command"] == "replay"
            assert manifest["flags"] == {"choices": "xxxx", "trace": bool(trace)}
            # Every event logged before the illegal step is written.
            assert captured.out.count("\n") == lines
            assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest


    @staticmethod
    def _first_action(obj: dict, kind: str) -> dict:
        return next(item["step"]["action"][kind] for turn in obj["turns"]
                    for item in turn["items"]
                    if kind in item.get("step", {}).get("action", {}))

    @staticmethod
    def _first_target(obj: dict, kind: str) -> dict:
        """The first play target that holds ``kind``: "hero" or "side"."""
        for turn in obj["turns"]:
            for item in turn["items"]:
                action = item.get("step", {}).get("action", {})
                target = action.get("play", {}).get("target", {})
                if kind in target:
                    return target
        raise AssertionError(f"no play target holds {kind!r}")

    @staticmethod
    def _first_step(obj: dict) -> dict:
        return next(item["step"] for turn in obj["turns"]
                    for item in turn["items"] if "step" in item)

    @staticmethod
    def _first_branch(obj: dict) -> dict:
        return next(item["branch"] for turn in obj["turns"]
                    for item in turn["items"] if "branch" in item)

    @staticmethod
    def _drop_first_branch(obj: dict) -> None:
        """The first branch item deleted from its turn."""
        for turn in obj["turns"]:
            for k, item in enumerate(turn["items"]):
                if "branch" in item:
                    del turn["items"][k]
                    return

    @staticmethod
    def _decisions_and_shift(obj: dict) -> None:
        """Every branch's decision number plus 0.9, and a string shift."""
        for turn in obj["turns"]:
            for item in turn["items"]:
                if "branch" in item:
                    item["branch"]["decision"] += 0.9
        obj["valueShift"] = "0"

    @staticmethod
    def _optional_no(obj: dict) -> None:
        """Every plain step marked ``"optional": "no"``."""
        for turn in obj["turns"]:
            for item in turn["items"]:
                if "step" in item:
                    item["step"]["optional"] = "no"

    @pytest.mark.parametrize("tamper, message", [
        (lambda obj: TestReplay._decisions_and_shift(obj), "not an integer"),
        (lambda obj: obj.update(valueShift=0.0), "not an integer"),
        (lambda obj: obj["decisions"][0].update(xAttack=12.0), "not an integer"),
        (lambda obj: obj["turns"][0].update(side=False), "not an integer"),
        (lambda obj: TestReplay._first_action(obj, "play").update(hand=0.5),
         "not an integer"),
        (lambda obj: TestReplay._first_action(obj, "attack")["attacker"].update(
            slot="1"), "not an integer"),
        (lambda obj: TestReplay._optional_no(obj), "not a boolean: 'no'"),
        (lambda obj: TestReplay._first_branch(obj).update(decision=99),
         "branch decision 99 is not in 1..4"),
        (lambda obj: TestReplay._first_branch(obj).update(decision=0),
         "branch decision 0 is not in 1..4"),
        (lambda obj: obj.update(decisions=obj["decisions"][:2]), "2 decisions for 4 pairs"),
        (lambda obj: TestReplay._first_branch(obj).update(decision=2),
         "branch decision 2 repeats"),
        (lambda obj: TestReplay._drop_first_branch(obj), "no branch for decision 1"),
        (lambda obj: TestReplay._first_step(obj).update(action={"play": [0]}),
         "malformed line file: not an object: [0]"),
        (lambda obj: obj["turns"][0]["items"][0].update(
            step=[TestReplay._first_step(obj)]), "malformed line file: not an object: [{"),
        (lambda obj: TestReplay._first_step(obj).update(action=[{"end": True}]),
         "malformed line file: not an object: [{'end': True}]"),
        (lambda obj: TestReplay._first_branch(obj).update(x="ab"),
         "malformed line file: not an array: 'ab'"),
        (lambda obj: TestReplay._first_step(obj).update(action={"end": 1}),
         "malformed line file: unrecognised action object: {'end': 1}"),
        (lambda obj: TestReplay._first_step(obj).update(action={"end": "yes"}),
         "malformed line file: unrecognised action object: {'end': 'yes'}"),
        (lambda obj: TestReplay._first_step(obj).update(action={"end": False}),
         "malformed line file: unrecognised action object: {'end': False}"),
        (lambda obj: obj.update(formatVersion=True), "unsupported line formatVersion"),
        (lambda obj: obj.update(formatVersion=1.0), "unsupported line formatVersion"),
        (lambda obj: TestReplay._first_target(obj, "hero").update(hero=-1),
         "malformed line file: side must be 0 or 1, got -1"),
        (lambda obj: TestReplay._first_target(obj, "side").update(side=5),
         "malformed line file: side must be 0 or 1, got 5"),
    ], ids=["decision_and_shift", "shift", "decision_record", "turn_side",
            "hand_index", "char_ref", "optional_flag", "branch_decision_high",
            "branch_decision_zero", "short_decisions", "branch_decision_repeated",
            "branch_decision_missing", "play_array", "step_array", "action_array",
            "half_string", "end_one", "end_yes", "end_false", "format_version_true",
            "format_version_float", "hero_side", "minion_side"])
    def test_non_integer_line_numbers_are_input_errors(
            self, compiled_dir, tmp_path, capsys, tamper, message) -> None:
        """A float, a numeric string or a bool in a line file, its
        ``formatVersion`` included, is not rounded into the line, nor is a
        truthy non-boolean ``optional`` or ``end`` read as true, nor
        branches or a decision list that do not match the instance's pairs
        one to one.  A step, action or ``play`` must be a JSON object, a
        branch half an array, and a target's side 0 or 1.  Each makes the
        replay exit 2 before any output."""
        obj = json.loads((compiled_dir / "line.json").read_text())
        assert "step" in obj["turns"][0]["items"][0]
        tamper(obj)
        bad = tmp_path / "bad-line.json"
        bad.write_text(json.dumps(obj))
        code = main(["replay", str(compiled_dir / "config.json"), str(bad),
                     "--choices", "xyyx"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err


class TestSolve:
    def test_micro_config(self, tmp_path, capsys) -> None:
        from micro_positions import micro_positions

        label, config, expected = micro_positions()[0]  # weapon_race_win
        path = tmp_path / "micro.json"
        path.write_text(config.to_json())
        code = main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        out = json.loads(captured.out)
        assert out["verdict"] == "win"
        assert out["nodes"] > 0
        assert out["exhausted"] is False
        assert out["pv"], "expected a best-play prefix"

    def test_wrong_typed_config_field_is_an_input_error(
            self, instance_file, compiled_dir, tmp_path, capsys) -> None:
        """Every command that reads a config file rejects a string where a
        number belongs with exit 2 and an error line, not a traceback."""
        obj = json.loads((compiled_dir / "config.json").read_text())
        obj["players"][0]["hero"]["maxHealth"] = "x"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        for argv in (["solve", str(bad)],
                     ["replay", str(bad), str(compiled_dir / "line.json"),
                      "--choices", "xyyx"],
                     ["verify", instance_file, "--config-override", str(bad)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "maxHealth" in err


    def test_turn_past_the_turn_limit_is_an_input_error(self, tmp_path, capsys) -> None:
        """A config that starts after its last turn is no game: ``solve``
        exits 2 rather than play a turn past the limit and call it a draw."""
        path = tmp_path / "late.json"
        path.write_text(json.dumps({
            "formatVersion": 1,
            "players": [{"hero": {"health": 30}}, {"hero": {"health": 3}}],
            "active": 0, "turn": 5, "turnLimit": 4}))
        assert main(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: turnLimit must be >= turn\n"


class TestCards:
    def test_dump_matches_embedded_table(self, capsys) -> None:
        code = main(["cards", "dump"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == database_to_json()
        obj = json.loads(captured.out)
        assert obj["formatVersion"] == 1
        assert len(obj["cards"]) == 20

    def test_dump_matches_shipped_file(self, capsys) -> None:
        from pathlib import Path

        import hearthproof

        code = main(["cards", "dump"])
        captured = capsys.readouterr()
        assert code == 0
        shipped = (Path(hearthproof.__file__).parent / "data" /
                   "cards.json").read_text()
        assert captured.out == shipped


class TestManifest:
    SMALL = {"formatVersion": 1, "players": [
        {"hero": {"health": 30, "manaCrystals": 1}, "hand": ["Mortal Coil"],
         "board": [{"card": "Wee Spellstopper"}, {"card": "Novice Engineer"}]},
        {"hero": {"health": 3, "manaCrystals": 0},
         "board": [{"card": "Novice Engineer", "flags": ["taunt"]}]}],
        "active": 0, "turn": 1, "turnLimit": 2}
    # The compiled worked config at --turn-limit 61.
    CONFIG_61 = "a78df6bd1b79699c8c0482237223ff25709cbfb48211ea6c291a8c34e76976fd"

    def test_every_field_is_pinned(self, tmp_path, monkeypatch, capsys) -> None:
        """Each command's manifest names the command, its input files in
        order and every other option as given, whatever it leaves at its
        default; only ``durationSeconds`` varies from run to run."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "worked.json").write_text(json.dumps(WORKED))
        (tmp_path / "small.json").write_text(json.dumps(self.SMALL))
        runs = [
            (["compile", "worked.json", "--out-dir", "out", "--turn-limit", "61",
              "--validate", "all"], 0,
             "compile", ["worked.json"], self.CONFIG_61,
             {"outDir": "out", "turnLimit": 61, "validate": "all"}),
            (["verify", "worked.json", "--config-override", "out/config.json",
              "--mode", "full", "--max-nodes", "200", "--max-depth", "50",
              "--turn-limit", "61", "--deviation-turns", "1",
              "--allow-unresolved"], 1,
             "verify", ["worked.json", "out/config.json"], self.CONFIG_61,
             {"mode": "full", "maxNodes": 200, "maxDepth": 50, "turnLimit": 61,
              "deviationTurns": 1, "allowUnresolved": True}),
            (["verify", "worked.json"], 0,
             "verify", ["worked.json"],
             "8a53376ffe36f4c9914311f1170565aebd9812a0be47f502cda36e22a9ff7962",
             {"mode": "skeleton", "maxNodes": 500_000, "maxDepth": 120,
              "turnLimit": 60, "deviationTurns": None, "allowUnresolved": False}),
            (["replay", "out/config.json", "out/line.json", "--choices", "xyyx",
              "--trace"], 0,
             "replay", ["out/config.json", "out/line.json"], self.CONFIG_61,
             {"choices": "xyyx", "trace": True}),
            (["solve", "small.json", "--max-depth", "40"], 0,
             "solve", ["small.json"],
             "51ee7b9a1ce0665a0ea88bd7172323a3d4cf6f2403dea396d624debc1a4bf8d3",
             {"maxNodes": 500_000, "maxDepth": 40}),
            (["cards", "dump"], 0,
             "cards dump", [],
             "c8848abe80be76b5fb9fba79f01100eb565772b3aea1e414843e7b0adea8a021",
             {}),
        ]
        for argv, code, command, inputs, config_hash, flags in runs:
            assert main(argv) == code, argv
            manifest = read_manifest_line(capsys.readouterr().err)
            assert isinstance(manifest.pop("durationSeconds"), float)
            manifest.pop("counters", None)
            assert manifest == {
                "formatVersion": 1, "command": command, "inputs": inputs,
                "flags": flags, "toolVersion": "0.1.0", "configHash": config_hash,
            }, argv
            if command == "compile":
                written = json.loads((tmp_path / "out" / "manifest.json").read_text())
                del written["durationSeconds"]
                assert written == manifest

//! Tokenizer hot-path benchmarks: a full recount of every prompt vs. summed
//! counts, over a growing Fig. 6-shaped prompt and over a sliding-window
//! planning prompt, and the memoized BPE word counter. The token rule is
//! additive across whitespace, so a prompt assembled from newline-ended
//! pieces costs the sum of their counts. Summing counts each piece once,
//! where it is made, and scans only the text that changes every step; a
//! full recount is quadratic in the conversation on pure appends and
//! re-scans the whole memory window on every sliding-window prompt.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use embodied_llm::{BpeTokenizer, Tokenizer};

/// One Fig. 6-style dialogue turn: observation, memory recall, plan.
fn turn(i: usize) -> String {
    format!(
        "[step {i}] observation: agent_0 sees kitchen counter with apple_🍎 and pan\n\
         [memory] recalled: cabinet_2 already searched, fridge open\n\
         [plan] decompose goal -> pick_up(apple) move_to(counter) place(pan)\n"
    )
}

fn bench_growing_prompt(c: &mut Criterion) {
    let tok = Tokenizer::default();
    for steps in [16usize, 64, 256] {
        let mut group = c.benchmark_group(format!("growing_prompt/{steps}"));

        // Baseline: re-tokenize the whole prompt every step (quadratic).
        group.bench_with_input(
            BenchmarkId::from_parameter("full_recount"),
            &steps,
            |b, &steps| {
                b.iter(|| {
                    let mut prompt = String::new();
                    let mut total = 0;
                    for i in 0..steps {
                        prompt.push_str(&turn(i));
                        total = tok.count(black_box(&prompt));
                    }
                    total
                })
            },
        );

        // Summed: each turn is counted once, when it is appended, and the
        // running total adds it; per-step cost tracks the turn.
        group.bench_with_input(
            BenchmarkId::from_parameter("summed"),
            &steps,
            |b, &steps| {
                b.iter(|| {
                    let mut prompt = String::new();
                    let mut total = 0;
                    for i in 0..steps {
                        let turn = turn(i);
                        total += tok.count(black_box(&turn));
                        prompt.push_str(&turn);
                    }
                    total
                })
            },
        );
        group.finish();
    }
}

/// Fixed head of every planning prompt: system preamble and task goal.
const PREAMBLE: &str = "[system] You are the planning module of an embodied agent system \
operating in a partially observable household. Pursue the long-horizon task goal \
efficiently: reason step by step about the current observation, your memory of the \
world and any messages from teammates before committing to a decision. Avoid \
repeating actions that recently failed, coordinate with teammates so no two agents \
chase the same object, and answer with exactly one choice from the provided action \
list followed by a brief justification of how it advances the task. Objects are \
named kind_index (apple_3, cabinet_2); rooms are room_N; carried items are listed \
under your inventory. Prefer actions that finish subgoals already in progress.\n\
[task goal] Transport all target objects (apple_1, bread_4, cup_7, plate_2, \
spoon_9, towel_5) to the goal zone on the dining table in room_0.\n";

/// Memory-log steps kept in the window.
const WINDOW: usize = 12;

/// The memory lines one step appends to the log.
fn memory_lines(step: usize) -> String {
    let room = step % 7;
    format!(
        "step {step}: agent_{a} moved to room_{room}, saw cabinet_{c} (closed) and \
         table_{room} holding cup_{c} and plate_{p}.\n\
         step {step}: agent_{a} opened cabinet_{c}: found spoon_{s}, towel_{t}; \
         nothing else of interest.\n\
         step {step}: message from agent_{b}: \"I am carrying bread_4 to the goal \
         zone, skip room_{room}\".\n\
         step {step}: plan pick_up(cup_{c}) succeeded after 2 retries; progress \
         {done}/6 objects delivered.\n",
        a = step % 4,
        b = (step + 1) % 4,
        c = step % 11,
        p = step % 5,
        s = step % 13,
        t = step % 3,
        done = (step / 9).min(6),
    )
}

/// The parts of the planning prompt at `step` that change every step: the
/// observation and the action menu.
fn step_parts(step: usize) -> (String, String) {
    let observation = format!(
        "[current observation] step {step}: you are in room_{r} at ({x},{y}); visible: \
         cabinet_{c} (open), table_{r}, cup_{c} on table_{r}, door to room_{n} (open). \
         Inventory: {inv}. Teammates: agent_1 in room_{n}, agent_2 carrying bread_4.\n",
        r = step % 7,
        n = (step + 1) % 7,
        x = step * 3 % 17,
        y = step * 5 % 13,
        c = step % 11,
        inv = if step.is_multiple_of(2) {
            "empty"
        } else {
            "plate_2"
        },
    );
    let mut menu = String::from("[available actions]\n");
    for k in 0..12 {
        let obj = (step + k) % 11;
        menu.push_str(&format!(
            "{k}. go to room_{} and pick up cup_{obj} from table_{}\n",
            (step + k) % 7,
            (step + k) % 7
        ));
    }
    (observation, menu)
}

/// The memory section's header.
const MEMORY_HEADER: &str = "[memory]\n";

/// The planning prompt at `step`: fixed head, an observation and action
/// menu that change every step, and the last [`WINDOW`] steps of memory.
fn window_prompt(step: usize) -> String {
    let (observation, menu) = step_parts(step);
    let mut prompt = String::from(PREAMBLE);
    prompt.push_str(&observation);
    prompt.push_str(MEMORY_HEADER);
    for past in step.saturating_sub(WINDOW)..step {
        prompt.push_str(&memory_lines(past));
    }
    prompt.push_str(&menu);
    prompt
}

/// Counts every sliding-window prompt the way prompt assembly does: the
/// head once per episode, each step's memory lines once when they are
/// stored, and only the observation and the menu per prompt.
fn summed_window_counts(tok: &Tokenizer, parts: &[(String, String)], logs: &[String]) -> u64 {
    let head = tok.count(PREAMBLE) + tok.count(MEMORY_HEADER);
    let mut stored = Vec::with_capacity(logs.len());
    let mut total = 0;
    for (step, (observation, menu)) in parts.iter().enumerate() {
        if step > 0 {
            stored.push(tok.count(black_box(&logs[step - 1])));
        }
        let window: u64 = stored[step.saturating_sub(WINDOW)..].iter().sum();
        total += head + tok.count(black_box(observation)) + window + tok.count(black_box(menu));
    }
    total
}

fn bench_sliding_window(c: &mut Criterion) {
    let tok = Tokenizer::default();
    for steps in [16usize, 64, 256] {
        let prompts: Vec<String> = (0..steps).map(window_prompt).collect();
        let parts: Vec<(String, String)> = (0..steps).map(step_parts).collect();
        let logs: Vec<String> = (0..steps).map(memory_lines).collect();
        let recount: u64 = prompts.iter().map(|p| tok.count(p)).sum();
        assert_eq!(summed_window_counts(&tok, &parts, &logs), recount);
        let mut group = c.benchmark_group(format!("sliding_window/{steps}"));
        group.bench_with_input(
            BenchmarkId::from_parameter("full_recount"),
            &prompts,
            |b, prompts| b.iter(|| prompts.iter().map(|p| tok.count(black_box(p))).sum::<u64>()),
        );
        group.bench_function("summed", |b| {
            b.iter(|| summed_window_counts(&tok, &parts, &logs))
        });
        group.finish();
    }
}

fn bench_bpe_memo(c: &mut Criterion) {
    let text: String = (0..32).map(turn).collect();
    let mut group = c.benchmark_group("bpe_count");
    let warm = BpeTokenizer::new(400);
    warm.count(&text); // populate the per-word memo
    group.bench_function("memoized", |b| b.iter(|| warm.count(black_box(&text))));
    group.bench_function("unmemoized_encode", |b| {
        b.iter(|| {
            text.split_whitespace()
                .map(|w| warm.encode_word(black_box(w)).len() as u64)
                .sum::<u64>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_growing_prompt,
    bench_sliding_window,
    bench_bpe_memo
);
criterion_main!(benches);

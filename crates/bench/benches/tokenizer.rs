//! Tokenizer hot-path benchmarks: full recount per step vs. the
//! incremental accumulator over a growing Fig. 6-shaped prompt and over a
//! sliding-window planning prompt, and the memoized BPE word counter. On
//! pure appends, `count_incremental` tracks the appended text while a full
//! recount per step is quadratic in the conversation length. Real planning
//! prompts are not append-only: behind a fixed preamble and goal, the
//! observation changes every step and the memory log slides, so the
//! incremental path re-tokenizes most of each prompt anyway.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use embodied_llm::{BpeTokenizer, PromptTokens, Tokenizer};

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

        // Incremental: resume from the deepest checkpoint in the shared
        // prefix; per-step cost tracks the appended turn, not the prompt.
        group.bench_with_input(
            BenchmarkId::from_parameter("incremental"),
            &steps,
            |b, &steps| {
                b.iter(|| {
                    let mut cache = PromptTokens::new();
                    let mut prompt = String::new();
                    let mut total = 0;
                    for i in 0..steps {
                        prompt.push_str(&turn(i));
                        total = tok.count_incremental(&mut cache, black_box(&prompt));
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

/// The planning prompt at `step`: fixed head, an observation and action
/// menu that change every step, and the last [`WINDOW`] steps of memory.
fn window_prompt(step: usize) -> String {
    let mut prompt = String::from(PREAMBLE);
    prompt.push_str(&format!(
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
    ));
    prompt.push_str("[memory]\n");
    for past in step.saturating_sub(WINDOW)..step {
        prompt.push_str(&memory_lines(past));
    }
    prompt.push_str("[available actions]\n");
    for k in 0..12 {
        let obj = (step + k) % 11;
        prompt.push_str(&format!(
            "{k}. go to room_{} and pick up cup_{obj} from table_{}\n",
            (step + k) % 7,
            (step + k) % 7
        ));
    }
    prompt
}

fn bench_sliding_window(c: &mut Criterion) {
    let tok = Tokenizer::default();
    for steps in [16usize, 64, 256] {
        let prompts: Vec<String> = (0..steps).map(window_prompt).collect();
        let mut group = c.benchmark_group(format!("sliding_window/{steps}"));
        group.bench_with_input(
            BenchmarkId::from_parameter("count"),
            &prompts,
            |b, prompts| b.iter(|| prompts.iter().map(|p| tok.count(black_box(p))).sum::<u64>()),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter("count_incremental"),
            &prompts,
            |b, prompts| {
                b.iter(|| {
                    let mut cache = PromptTokens::new();
                    prompts
                        .iter()
                        .map(|p| tok.count_incremental(&mut cache, black_box(p)))
                        .sum::<u64>()
                })
            },
        );
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

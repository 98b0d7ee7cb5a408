//! Allocation-count gates for the data-oriented step loop.
//!
//! A counting global allocator (thread-local counters, so parallel test
//! threads never pollute each other's measurements) pins two properties of
//! the hot path:
//!
//! 1. the reworked planning/memory/comms primitives — streaming memory
//!    and map retrieval into a reused buffer, point entity queries, prompt
//!    assembly via [`PromptWriter`] with a pre-counted memory body, the
//!    centralized joint prompt, and inference with a borrowed-prompt
//!    request that supplies its token count — perform **zero** heap
//!    allocations at steady state (after warm-up), both when the prompt is
//!    rendered and when it is assembled as a count alone;
//! 2. a full episode's allocation rate is **flat**: later steps do not
//!    allocate more than earlier ones, i.e. nothing on the step loop clones
//!    or re-formats ever-growing history — on the single-agent path and on
//!    the six-agent dialogue path, where every message reaches five
//!    teammates' inboxes and memories;
//! 3. an environment's menus — `candidate_subgoals`, `oracle_subgoals` and
//!    `affordances` — allocate only their `Vec`: every name in them is a
//!    reference-count bump on a name the environment built once;
//! 4. knowledge-filtering such a menu against a memory's entity set and
//!    counting its tokens allocate nothing: lookups read each name's stored
//!    hash and counts read the token count it stored when it was made;
//! 5. an environment's `observe` allocates only its `Vec` of seen
//!    entities, whose descriptions are inline phrases over shared names,
//!    and sensing an observation allocates exactly the percept's shared
//!    text and, when it recognized anything, its entity list;
//! 6. retrieval from a full-history memory allocates nothing at 10, 100
//!    or 1000 records, with and without summarization;
//! 7. a world searches each route once: repeating a pair's query after
//!    the first allocates nothing.
//!
//! The allocator lives here (an integration test is its own crate) because
//! the library itself is `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use embodied_agents::config::MemoryCapacity;
use embodied_agents::modules::{MemoryModule, Percept, RecordKind, SensingModule, WorldMap};
use embodied_agents::prompt::{title, write_joint_plan_prompt, Counted, PromptWriter, TextSink};
use embodied_agents::{workloads, AgentConfig, EnvKind, ModularAgent, RunOverrides};
use embodied_env::{
    BoxVariant, EnvFaultProfile, Environment, FaultyEnv, GridWorld, LowLevel, Name, Subgoal,
    TaskDifficulty,
};
use embodied_llm::{InferenceService, LlmEngine, LlmRequest, ModelProfile, Purpose, ServingConfig};

/// Delegates everything to [`System`], bumping a thread-local counter on
/// each allocation (and reallocation — growth is an allocation for the
/// purposes of a zero-alloc gate). Deallocations are free and uncounted.
struct CountingAllocator;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: pure delegation to `System`; the counter bump has no effect on
// layout or pointer validity. `try_with` never allocates for a const-init
// thread local and degrades to "uncounted" during TLS teardown.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations observed by the current thread so far.
fn allocs() -> usize {
    ALLOCS.with(|c| c.get())
}

/// Reused buffers and the fixed inputs of one steady-state planning pass.
struct Planner {
    engine: LlmEngine,
    preamble: Counted<String>,
    goal: Counted<String>,
    map: WorldMap,
    percepts: Vec<Percept>,
    menus: Vec<Vec<Subgoal>>,
    /// The entity the point `knows` query asks about.
    probe: Name,
    memory_buf: String,
    prompt_buf: String,
}

/// The steady-state planning path: the map context and retrieval streamed
/// into a reused buffer (or only counted), a point `knows` query, prompt
/// assembly into a second reused buffer with the memory section's count
/// carried from the store, and one inference call lending that buffer and
/// its count (or the count alone) to the engine. Then the centralized joint
/// prompt over the same memory, written into the same buffer and served
/// the same way.
fn plan_once(mem: &MemoryModule, p: &mut Planner, render: bool) -> f64 {
    let mut memory = TextSink::new(render.then_some(&mut p.memory_buf));
    p.map.write_context(&mut memory);
    let stats = mem.retrieve(&mut memory);
    let memory = memory.finish();
    let known = mem.knows(&p.probe);
    let mut w = PromptWriter::new(render.then_some(&mut p.prompt_buf), p.preamble.as_deref());
    w.push_counted(title::TASK_GOAL, p.goal.as_deref())
        .push(
            Counted::literal("known"),
            if known { p.probe.as_str() } else { "nothing" },
        )
        .push_counted(title::MEMORY, memory);
    let req = LlmRequest::new(Purpose::Planning, w.finish(), 64).with_difficulty(0.4);
    let resp = p.engine.infer(req).expect("inference succeeds");

    let mut w = PromptWriter::new(render.then_some(&mut p.prompt_buf), p.preamble.as_deref());
    write_joint_plan_prompt(&mut w, p.goal.as_deref(), memory, &p.percepts, &p.menus);
    let req = LlmRequest::new(Purpose::Planning, w.finish(), 64);
    let joint = p.engine.infer(req).expect("inference succeeds");
    resp.quality + joint.quality + stats.inconsistency_penalty
}

/// Allocations over 100 steady-state planning passes, after a warm-up.
fn steady_state_allocations(render: bool) -> usize {
    // A memory with real history: 64 records over 32 steps, sliding window.
    let landmarks = vec!["kitchen".to_string(), "forge".to_string()];
    let mut mem = MemoryModule::new(true, MemoryCapacity::Steps(8), true, true, landmarks);
    let mut map = WorldMap::new();
    for step in 0..32 {
        mem.begin_step(step);
        mem.store(
            RecordKind::Observation,
            format!("saw object_{} near the forge", step % 10),
            vec![format!("object_{}", step % 10).into()],
        );
        mem.store(
            RecordKind::Action,
            format!("moved toward object_{}", step % 10),
            vec![format!("object_{}", step % 10).into()],
        );
        map.integrate(
            &Percept {
                entities: vec![format!("object_{}", step % 10).into()].into(),
                text: Counted::new("".into()),
                location: format!("room_{}", step % 9).into(),
            },
            step,
        );
    }
    let mut planner = Planner {
        engine: LlmEngine::new(ModelProfile::gpt4_api(), 7),
        preamble: Counted::new("You are an embodied agent.".to_owned()),
        goal: Counted::new("craft an iron pickaxe".to_owned()),
        map,
        percepts: (0..3)
            .map(|i| Percept {
                entities: vec![format!("object_{i}").into()].into(),
                text: Counted::new(format!("agent {i} sees object_{i} near the forge").into()),
                location: "forge".into(),
            })
            .collect(),
        menus: (0..3)
            .map(|i| {
                vec![
                    Subgoal::Explore,
                    Subgoal::Pick {
                        object: format!("object_{i}").into(),
                    },
                ]
            })
            .collect(),
        probe: "object_3".into(),
        memory_buf: String::new(),
        prompt_buf: String::new(),
    };

    // Warm-up: grows the reused buffers to their steady-state capacity.
    let mut acc = 0.0;
    for _ in 0..3 {
        acc += plan_once(&mem, &mut planner, render);
    }

    let before = allocs();
    for _ in 0..100 {
        acc += plan_once(&mem, &mut planner, render);
    }
    let after = allocs();
    assert!(acc.is_finite());
    after - before
}

#[test]
fn steady_state_planning_path_is_allocation_free() {
    let n = steady_state_allocations(true);
    assert_eq!(
        n, 0,
        "steady-state planning path allocated {n} times over 100 iterations"
    );
}

#[test]
fn steady_state_count_only_planning_path_is_allocation_free() {
    let n = steady_state_allocations(false);
    assert_eq!(
        n, 0,
        "count-only planning path allocated {n} times over 100 iterations"
    );
}

#[test]
fn episode_allocations_do_not_grow_with_history() {
    assert_flat_allocation_rate("DEPS", RunOverrides::default(), 15, 30);
    // Six agents in dialogue on a batched serving tier (perf_bench's
    // team_dialogue). The episode completes its task in 20 steps, which
    // bounds the windows.
    assert_flat_allocation_rate(
        "CoELA",
        RunOverrides {
            num_agents: Some(6),
            serving: Some(ServingConfig::batched()),
            ..Default::default()
        },
        4,
        8,
    );
}

/// Drives a long episode of `system` step by step, `warmup` steps and then
/// two windows of `window` steps, and compares the allocation count of the
/// early window against the late one. If any hot-path
/// component cloned or re-formatted the full history each step, the late
/// window would allocate strictly more; a flat profile pins the
/// data-oriented loop.
fn assert_flat_allocation_rate(
    system: &str,
    overrides: RunOverrides,
    warmup: usize,
    window: usize,
) {
    let spec = workloads::find(system).expect("suite member");
    let overrides = RunOverrides {
        difficulty: Some(TaskDifficulty::Hard),
        ..overrides
    };
    let config = overrides.apply(&spec);
    let team = overrides.num_agents.unwrap_or(spec.default_agents);
    let mut sys = spec.build_system(&config, TaskDifficulty::Hard, team, 42);
    for _ in 0..warmup {
        assert!(sys.step_once(), "{system}: episode ended during warm-up");
    }
    let start = allocs();
    for _ in 0..window {
        assert!(
            sys.step_once(),
            "{system}: episode ended during the early window"
        );
    }
    let early = allocs() - start;
    let start = allocs();
    for _ in 0..window {
        assert!(
            sys.step_once(),
            "{system}: episode ended during the late window"
        );
    }
    let late = allocs() - start;

    // The environment side legitimately allocates per step (new records,
    // candidate menus), so the gate is *flatness*, not zero: the late
    // window may not allocate more than the early one beyond a small
    // constant slack for amortized container growth.
    assert!(
        late <= early + early / 4 + 16,
        "{system}: allocation rate grows with history: early window {early}, late window {late}"
    );
}

/// Allocations a menu call may make: the growth of its one `Vec`,
/// whatever the number of names in it.
const MENU_ALLOCS: usize = 8;

/// Every suite environment at `Medium` with its workloads' team sizes, and
/// ALFWorld (no workload's default), plus the fault plane over BoxLift at
/// four arms, each with a label.
fn menu_envs() -> Vec<(String, Box<dyn Environment>)> {
    let mut envs: Vec<(String, Box<dyn Environment>)> = workloads::registry()
        .iter()
        .map(|spec| {
            let env = spec.build_env(TaskDifficulty::Medium, spec.default_agents, 42);
            (format!("{} ({})", env.name(), spec.name), env)
        })
        .collect();
    envs.push((
        "ALFWorld".into(),
        EnvKind::AlfWorld.build(TaskDifficulty::Medium, 1, 42),
    ));
    let boxlift = EnvKind::BoxWorld(BoxVariant::BoxLift).build(TaskDifficulty::Medium, 4, 42);
    envs.push((
        "FaultyEnv over BoxLift@4".into(),
        Box::new(FaultyEnv::new(boxlift, EnvFaultProfile::uniform(0.15), 42)),
    ));
    envs
}

/// [`menu_envs`]: after construction, no menu call copies a name.
#[test]
fn menus_allocate_only_their_vec() {
    for (label, mut env) in menu_envs() {
        let mut low = LowLevel::controller(7);
        for step in 0..env.max_steps().min(20) {
            env.begin_step(step);
            for agent in 0..env.num_agents() {
                let counted = |call: &str, make: &dyn Fn() -> usize| {
                    let start = allocs();
                    let len = make();
                    let n = allocs() - start;
                    assert!(
                        n <= MENU_ALLOCS,
                        "{label}: {call}({agent}) at step {step} allocated {n} times for {len} subgoals"
                    );
                };
                counted("candidate_subgoals", &|| {
                    env.candidate_subgoals(agent).len()
                });
                counted("oracle_subgoals", &|| env.oracle_subgoals(agent).len());
                counted("affordances", &|| env.affordances(agent).candidates().len());
                let sg = env
                    .oracle_subgoals(agent)
                    .first()
                    .cloned()
                    .unwrap_or(Subgoal::Explore);
                env.execute(agent, &sg, &mut low);
            }
        }
    }
}

/// Every suite environment, ALFWorld and the fault plane over BoxLift, as
/// [`menus_allocate_only_their_vec`] builds them: `observe` allocates only
/// its `Vec`'s growth, and a warmed-up sensing pass allocates exactly the
/// percept's text and, when it saw anything, its entity list.
#[test]
fn observations_allocate_only_their_vec() {
    for (label, mut env) in menu_envs() {
        let mut sensing = SensingModule::new(None, 42);
        let mut low = LowLevel::controller(7);
        for step in 0..env.max_steps().min(20) {
            env.begin_step(step);
            for agent in 0..env.num_agents() {
                let start = allocs();
                let obs = env.observe(agent);
                let n = allocs() - start;
                assert!(
                    n <= MENU_ALLOCS,
                    "{label}: observe({agent}) at step {step} allocated {n} times for {} entities",
                    obs.visible.len()
                );
                // The first pass grows the module's buffers to this frame.
                sensing.sense(&obs);
                let start = allocs();
                let (percept, _) = sensing.sense(&obs);
                let n = allocs() - start;
                let expected = 1 + usize::from(!percept.entities.is_empty());
                assert_eq!(
                    n,
                    expected,
                    "{label}: sensing agent {agent}'s frame at step {step} allocated {n} times: {:?}",
                    percept.text.text()
                );
                let sg = env
                    .oracle_subgoals(agent)
                    .first()
                    .cloned()
                    .unwrap_or(Subgoal::Explore);
                env.execute(agent, &sg, &mut low);
            }
        }
    }
}

/// The knowledge filter over BoxLift at four arms, as the centralized
/// planner runs it for each agent: the menu against the central memory's
/// entity set, then the filtered menu's token count. The menu is fetched
/// before counting starts; the filter keeps its buffer, membership reads
/// each name's stored hash, and the count reads the token count each name
/// stored when it was made.
#[test]
fn knowledge_filter_and_menu_count_allocate_nothing() {
    let mut env = EnvKind::BoxWorld(BoxVariant::BoxLift).build(TaskDifficulty::Medium, 4, 42);
    let agent = ModularAgent::new(
        0,
        "MindAgent",
        AgentConfig::gpt4_modular(),
        env.landmarks(),
        42,
        &InferenceService::default(),
        0,
    );
    // No landmarks: the center knows only what it has seen.
    let mut mem = MemoryModule::new(true, MemoryCapacity::Steps(4), false, false, Vec::new());
    let mut low = LowLevel::controller(7);
    let (mut kept, mut dropped) = (0, 0);
    for step in 0..12 {
        env.begin_step(step);
        mem.begin_step(step);
        // The center sees agent 0's view only, so other agents' menus name
        // entities it does not know.
        let seen: Vec<Name> = env.observe(0).visible.into_iter().map(|e| e.name).collect();
        let known = mem.knowledge(&seen);
        for agent_id in 0..env.num_agents() {
            let menu = env.candidate_subgoals(agent_id);
            let offered = menu.len();
            let start = allocs();
            let menu = agent.filter_subgoals_with(menu, |e| mem.set_contains(&known, e), step);
            let tokens: u64 = menu.iter().map(Subgoal::tokens).sum();
            let n = allocs() - start;
            assert_eq!(
                n,
                0,
                "step {step}, agent {agent_id}: filtering {offered} subgoals to {} \
                 ({tokens} tokens) allocated {n} times",
                menu.len()
            );
            kept += menu.len();
            dropped += offered - menu.len();
        }
        mem.store(RecordKind::Observation, "saw the boxes", seen);
        for agent_id in 0..env.num_agents() {
            let sg = env
                .oracle_subgoals(agent_id)
                .first()
                .cloned()
                .unwrap_or(Subgoal::Explore);
            env.execute(agent_id, &sg, &mut low);
        }
    }
    assert!(kept > 0 && dropped > 0, "kept {kept}, dropped {dropped}");
}

/// A full-history memory holding `records` observations, one per step.
fn full_history_memory(records: usize, summarize: bool) -> MemoryModule {
    let landmarks = vec!["goal_zone".to_owned(), "room_0".to_owned()];
    let mut mem = MemoryModule::new(true, MemoryCapacity::Full, false, summarize, landmarks);
    for step in 0..records {
        mem.begin_step(step);
        mem.store(
            RecordKind::Observation,
            format!("saw object_{} near room_{}", step % 7, step % 3),
            vec![format!("object_{}", step % 7).into()],
        );
    }
    mem.begin_step(records);
    mem
}

/// Retrieval stays allocation-free however long the history grows: after
/// a warm-up pass sizes the buffer, writing the context into it and
/// counting it allocate nothing, whether every record is rendered or the
/// summarized view skips all but the last few.
#[test]
fn retrieval_allocates_nothing_at_any_history_length() {
    for records in [10, 100, 1000] {
        for summarize in [false, true] {
            let mem = full_history_memory(records, summarize);
            let mut buf = String::new();
            let mut warm = TextSink::new(Some(&mut buf));
            assert_eq!(mem.retrieve(&mut warm).records_scanned, records);
            let warm = warm.tokens();
            let start = allocs();
            let mut tokens = 0;
            for _ in 0..100 {
                for render in [true, false] {
                    let mut text = TextSink::new(render.then_some(&mut buf));
                    mem.retrieve(&mut text);
                    tokens += text.tokens();
                }
            }
            let n = allocs() - start;
            assert_eq!(tokens, 200 * warm);
            assert_eq!(
                n, 0,
                "{records} records, summarize {summarize}: retrieval allocated {n} times over 100 passes"
            );
        }
    }
}

/// A world keeps every route it planned: after a pair's first query, which
/// searches and allocates the route's shared path, 100 repeats of it share
/// that path and allocate nothing. A world that searched on every query
/// would allocate a path per query.
#[test]
fn a_repeated_route_allocates_nothing() {
    let mut world = GridWorld::rooms_in_row(28, 10, 4);
    let (from, goal) = (world.rooms()[0].center(), world.rooms()[3].center());
    let first = world.route(from, goal).expect("the rooms connect");
    let start = allocs();
    let (mut expanded, mut shared) = (0, 0);
    for _ in 0..100 {
        let again = world.route(from, goal).expect("the rooms connect");
        expanded += again.nodes_expanded;
        shared += usize::from(std::rc::Rc::ptr_eq(&again.path, &first.path));
    }
    let n = allocs() - start;
    assert_eq!(n, 0, "100 repeats of one route allocated {n} times");
    assert_eq!((expanded, shared), (100 * first.nodes_expanded, 100));
}

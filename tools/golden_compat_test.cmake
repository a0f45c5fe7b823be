# Byte-compatibility proof for the placement refactor: the paper
# configuration must produce byte-identical artifacts to the frozen
# pre-refactor goldens under tests/golden/ — per-arch --stats dumps
# (serial; --stats disables the parallel path by design), per-arch
# --json documents (serial AND --jobs 4: the parallel runner is
# bit-identical by contract), and the fig07 bench JSON modulo the
# volatile build.describe string (normalized to GOLDEN on both sides
# at capture time). Any intentional behavior change must re-capture
# the goldens and say so in the PR.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

set(archs shared private sp-nuca sp-nuca-static sp-nuca-shadow
    esp-nuca esp-nuca-flat d-nuca asr cc-0 cc-30 cc-70 cc-100)

foreach(arch ${archs})
    execute_process(
        COMMAND ${SIM} --arch ${arch} --workload apache --ops 3000
                --runs 1 --warmup 0.25 --seed 5 --stats
        OUTPUT_FILE ${WORKDIR}/${arch}.stats.txt
        RESULT_VARIABLE r
    )
    if(NOT r EQUAL 0)
        message(FATAL_ERROR "stats run failed for ${arch}: ${r}")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/${arch}.stats.txt ${GOLDEN}/stats/${arch}.txt
        RESULT_VARIABLE r
    )
    if(NOT r EQUAL 0)
        message(FATAL_ERROR
                "--stats dump for ${arch} differs from the frozen "
                "pre-placement golden")
    endif()

    foreach(jobs 1 4)
        execute_process(
            COMMAND ${SIM} --arch ${arch} --workload apache --ops 3000
                    --runs 2 --warmup 0.25 --seed 5 --json
                    --jobs ${jobs}
            OUTPUT_FILE ${WORKDIR}/${arch}.j${jobs}.json
            RESULT_VARIABLE r
        )
        if(NOT r EQUAL 0)
            message(FATAL_ERROR
                    "json run failed for ${arch} (jobs ${jobs}): ${r}")
        endif()
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${WORKDIR}/${arch}.j${jobs}.json
                    ${GOLDEN}/json/${arch}.json
            RESULT_VARIABLE r
        )
        if(NOT r EQUAL 0)
            message(FATAL_ERROR
                    "--json document for ${arch} (jobs ${jobs}) differs "
                    "from the frozen pre-placement golden")
        endif()
    endforeach()
endforeach()

# Contended mesh: the paper's 4x3 mesh keeps links lightly loaded, so
# link occupancy (backfilling, coalescing, pruning) is pinned by a
# 32-core tiled run whose links queue heavily.
set(tiled32 --arch esp-nuca --workload apache --cores 32 --banks 128
    --l2-mb 32 --placement tiled --ops 1500 --warmup 0)
execute_process(
    COMMAND ${SIM} ${tiled32} --stats
    OUTPUT_FILE ${WORKDIR}/esp-nuca-32c-tiled.stats.txt
    RESULT_VARIABLE r
)
if(NOT r EQUAL 0)
    message(FATAL_ERROR "stats run failed for esp-nuca-32c-tiled: ${r}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/esp-nuca-32c-tiled.stats.txt
            ${GOLDEN}/stats/esp-nuca-32c-tiled.txt
    RESULT_VARIABLE r
)
if(NOT r EQUAL 0)
    message(FATAL_ERROR
            "--stats dump for esp-nuca-32c-tiled differs from the golden")
endif()
foreach(jobs 1 4)
    execute_process(
        COMMAND ${SIM} ${tiled32} --json --jobs ${jobs}
        OUTPUT_FILE ${WORKDIR}/esp-nuca-32c-tiled.j${jobs}.json
        RESULT_VARIABLE r
    )
    if(NOT r EQUAL 0)
        message(FATAL_ERROR
                "json run failed for esp-nuca-32c-tiled (jobs ${jobs}): ${r}")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/esp-nuca-32c-tiled.j${jobs}.json
                ${GOLDEN}/json/esp-nuca-32c-tiled.json
        RESULT_VARIABLE r
    )
    if(NOT r EQUAL 0)
        message(FATAL_ERROR
                "--json document for esp-nuca-32c-tiled (jobs ${jobs}) "
                "differs from the golden")
    endif()
endforeach()

# Bench document: pinned ops/runs/jobs (the config section records the
# resolved worker count), describe normalized like the golden.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            ESPNUCA_OPS=1000 ESPNUCA_RUNS=2 ESPNUCA_JOBS=2
            --unset=ESPNUCA_CKPT_DIR --unset=ESPNUCA_PLACEMENT
            --unset=ESPNUCA_MESH
            ${BENCH} --json ${WORKDIR}/fig07.raw.json
    RESULT_VARIABLE r
    OUTPUT_QUIET
)
if(NOT r EQUAL 0)
    message(FATAL_ERROR "fig07 bench run failed: ${r}")
endif()
file(READ ${WORKDIR}/fig07.raw.json doc)
string(REGEX REPLACE "\"describe\":\"[^\"]*\"" "\"describe\":\"GOLDEN\""
       doc "${doc}")
file(WRITE ${WORKDIR}/fig07.json "${doc}")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/fig07.json ${GOLDEN}/bench/fig07.json
    RESULT_VARIABLE r
)
if(NOT r EQUAL 0)
    message(FATAL_ERROR
            "fig07 bench JSON differs from the frozen pre-placement "
            "golden (after describe normalization)")
endif()
file(REMOVE_RECURSE ${WORKDIR})

# A saved manifest replays the run it was saved from: save-manifest with the
# given run flags, run the saved manifest, run the same flags directly, and
# require byte-identical timeline CSVs. Run flags that save-manifest does not
# take (RUN_ONLY) are passed to both runs.
#
#   cmake -DCLI=moteur_cli -DDATA=examples/data -DOUT=dir
#         "-DFLAGS=--no-recovery;--retry-timeout;2" "-DRUN_ONLY=--se-loss;0.2"
#         -P manifest_replay.cmake
file(MAKE_DIRECTORY ${OUT})
set(manifest --manifest ${DATA}/bronze_run.xml)
set(services --services ${DATA}/bronze_services.xml)

execute_process(COMMAND ${CLI} save-manifest ${manifest} ${FLAGS} --out ${OUT}/saved.xml
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "save-manifest exited ${status}")
endif()

# Lossy runs exit 2; only the timelines are compared.
execute_process(COMMAND ${CLI} run --manifest ${OUT}/saved.xml ${services} ${RUN_ONLY}
                        --csv ${OUT}/replayed.csv
                OUTPUT_QUIET ERROR_QUIET)
execute_process(COMMAND ${CLI} run ${manifest} ${services} ${FLAGS} ${RUN_ONLY}
                        --csv ${OUT}/direct.csv
                OUTPUT_QUIET ERROR_QUIET)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/replayed.csv
                        ${OUT}/direct.csv
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  file(READ ${OUT}/saved.xml saved LIMIT 400)
  message(FATAL_ERROR "replayed timeline differs from the direct run; saved:\n${saved}")
endif()

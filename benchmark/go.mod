module covidkg/benchmark

go 1.22

require covidkg v0.0.0

replace covidkg => ../
